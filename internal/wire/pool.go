package wire

// Slab pool for the wire path. Every hot-path buffer —
// encoded messages, wire fragments (with transport framing headroom),
// reassembly partials — is drawn from a small set of size-classed free
// lists and explicitly released at the transport send/recv seams. The
// lists are deliberately not sync.Pool: putting a slice header into an
// interface allocates, which would put one allocation back on every
// release and defeat the AllocsPerRun guards. Bounded mutex-guarded
// stacks give true zero steady-state allocations and deterministic
// behaviour at the cluster sizes this runtime targets.

import "sync"

// slabSizes are the pool's size classes. MaxDatagram covers a full
// wire fragment plus transport framing headroom (a fragment frame is
// at most MaxDatagram-flowReserve bytes and every transport header is
// far smaller than flowReserve); the larger classes cover multi-
// fragment encode buffers. Requests above the largest class fall back
// to the allocator and are dropped on release.
var slabSizes = [...]int{64, 256, 1 << 10, 4 << 10, 16 << 10, MaxDatagram, 256 << 10, 1 << 20}

type slabClass struct {
	mu   sync.Mutex
	free [][]byte
}

// slabRetain bounds how many free slabs each class keeps; beyond it,
// released slabs are left to the garbage collector. Large classes keep
// fewer so the pool's worst-case footprint stays around ~10 MB.
func slabRetain(size int) int {
	if size >= 256<<10 {
		return 8
	}
	return 64
}

var slabClasses [len(slabSizes)]slabClass

// slabPoison is the byte written over released slabs when poisoning is
// enabled: any value still read through a stale alias turns into an
// obvious 0xDB pattern instead of silently reusing freed bytes.
const slabPoison = 0xDB

var slabPoisonOn bool // guarded by every class mutex? no: set only in tests before use
var slabPoisonMu sync.Mutex

// SetSlabPoison enables or disables poison-on-release: PutSlab
// overwrites the full capacity of each returned slab with 0xDB. Tests
// use it to catch use-after-release aliases; it is racy to toggle
// while slabs are in flight, so flip it only around quiesced sections.
func SetSlabPoison(on bool) {
	slabPoisonMu.Lock()
	slabPoisonOn = on
	slabPoisonMu.Unlock()
}

func poisoning() bool {
	slabPoisonMu.Lock()
	on := slabPoisonOn
	slabPoisonMu.Unlock()
	return on
}

// GetSlab returns a zero-length buffer with capacity at least n from
// the slab pool. Release it with PutSlab when the last reference is
// dropped; a buffer above the largest size class is plainly allocated
// and PutSlab will discard it.
func GetSlab(n int) []byte {
	for ci := range slabSizes {
		if n > slabSizes[ci] {
			continue
		}
		c := &slabClasses[ci]
		c.mu.Lock()
		if k := len(c.free); k > 0 {
			b := c.free[k-1]
			c.free[k-1] = nil
			c.free = c.free[:k-1]
			c.mu.Unlock()
			return b
		}
		c.mu.Unlock()
		return make([]byte, 0, slabSizes[ci])
	}
	return make([]byte, 0, n)
}

// PutSlab returns a buffer obtained from GetSlab (possibly grown by
// append) to the pool. The caller must drop every alias into b before
// releasing: the capacity is handed verbatim to the next GetSlab.
// Put of a nil or tiny foreign buffer is a no-op.
func PutSlab(b []byte) {
	cp := cap(b)
	ci := -1
	for i := range slabSizes {
		if cp >= slabSizes[i] {
			ci = i
		} else {
			break
		}
	}
	if ci < 0 {
		return
	}
	if poisoning() {
		full := b[:cp]
		for i := range full {
			full[i] = slabPoison
		}
	}
	c := &slabClasses[ci]
	c.mu.Lock()
	if len(c.free) < slabRetain(slabSizes[ci]) {
		c.free = append(c.free, b[:0])
	}
	c.mu.Unlock()
}

// drainSlabs empties every free list (test hook: isolates pool-
// accounting tests from slabs other tests left behind).
func drainSlabs() {
	for ci := range slabClasses {
		c := &slabClasses[ci]
		c.mu.Lock()
		c.free = nil
		c.mu.Unlock()
	}
}
