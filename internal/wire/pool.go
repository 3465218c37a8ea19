package wire

// Slab pool for the wire path. Every hot-path buffer — wire fragments
// (with transport framing headroom), the payload of every delivered
// message, payloads a sender builds in a PooledBuffer — is drawn from
// a small set of size-classed free lists and explicitly released:
// frames at the transport seams, delivered payloads by the handler that
// read them (Message.Release), built ones once Send has copied them. The lists are deliberately not sync.Pool:
// putting a slice header into an interface allocates, which would put
// one allocation back on every release and defeat the AllocsPerRun
// guards. Bounded mutex-guarded stacks give true zero steady-state
// allocations and deterministic behaviour at the cluster sizes this
// runtime targets.

import (
	"sync"
	"sync/atomic"
)

// largeSlabAllowance is the room the two large classes keep above their
// power of two, so a message carrying a 256 KiB or 1 MiB object plus a
// few bytes of framing (a 256 KiB object's fetch reply payload is
// 262,152 bytes) stays in its class instead of spilling into the next,
// four times larger.
const largeSlabAllowance = 4 << 10

// slabSizes are the pool's size classes. MaxDatagram covers a full
// wire fragment plus transport framing headroom (a fragment frame is
// at most MaxDatagram-flowReserve bytes and every transport header is
// far smaller than flowReserve); the larger classes cover multi-
// fragment payloads. Requests above the largest class fall back to the
// allocator, and on release join the largest class.
var slabSizes = [...]int{64, 256, 1 << 10, 4 << 10, 16 << 10, MaxDatagram,
	256<<10 + largeSlabAllowance, 1<<20 + largeSlabAllowance}

type slabClass struct {
	mu   sync.Mutex
	free [][]byte
}

// largeSlabRetainBytes bounds what each large class keeps free.
const largeSlabRetainBytes = 8 << 20

// slabRetain bounds how many free slabs a class of slabs of size bytes
// keeps; beyond it, released slabs are left to the garbage collector.
// Small classes keep 64. A large class keeps about 8 MiB — 31 slabs of
// 260 KiB, 7 of 1 MiB — so a barrier's burst of diffs for 256 KiB
// objects comes back to a pool that has room for all of it, and the
// next burst never misses.
func slabRetain(size int) int {
	if size >= 256<<10 {
		return largeSlabRetainBytes / size
	}
	return 64
}

var slabClasses [len(slabSizes)]slabClass

// slabPoison is the byte written over released slabs when poisoning is
// enabled: any value still read through a stale alias turns into an
// obvious 0xDB pattern instead of silently reusing freed bytes.
const slabPoison = 0xDB

// slabPoisonOn is read on every PutSlab, so it is an atomic rather
// than a flag under a lock.
var slabPoisonOn atomic.Bool

// SetSlabPoison enables or disables poison-on-release: PutSlab
// overwrites the full capacity of each returned slab with 0xDB. Tests
// use it to catch use-after-release aliases; it is racy to toggle
// while slabs are in flight, so flip it only around quiesced sections.
func SetSlabPoison(on bool) { slabPoisonOn.Store(on) }

// GetSlab returns a zero-length buffer with capacity at least n from
// the slab pool. Release it with PutSlab when the last reference is
// dropped; a buffer above the largest size class is plainly allocated.
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
	if slabPoisonOn.Load() {
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
