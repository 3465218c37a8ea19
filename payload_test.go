package lots

import (
	"runtime"
	"testing"

	"repro/internal/wire"
)

// TestFetchOverwritesReusedSlot: a fetch maps the object in without
// zeroing the slot, because it overwrites all of it. Here the slot is
// the one a previous tenant filled with 0xFF bytes and was evicted
// from; the fetched copy must be exactly the home's.
func TestFetchOverwritesReusedSlot(t *testing.T) {
	const words = 1024
	cfg := DefaultConfig(2)
	cfg.DMMSize = 4 * words // one object's slot
	c := mustCluster(t, cfg)
	want := func(i int) int32 { return int32(i*7 + 1) }
	err := c.Run(func(n *Node) {
		a := Alloc[int32](n, words) // homed at node 1
		b := Alloc[int32](n, words) // homed at node 0
		fill := func(p Ptr[int32], f func(int) int32) {
			v := p.ViewRW(0, words)
			for i := range words {
				v.Set(i, f(i))
			}
			v.Release()
		}
		if n.ID() == 0 {
			fill(b, want)
		} else {
			fill(a, func(int) int32 { return -1 })
		}
		n.Barrier()
		if n.ID() == 1 {
			v := b.View(0, words) // evicts a, maps b over its bytes, fetches
			for i := range words {
				if got := v.At(i); got != want(i) {
					t.Errorf("fetched b[%d] = %#x, want %#x", i, got, want(i))
					break
				}
			}
			v.Release()
			n.mu.Lock()
			if ac, bc := n.lookup(a.id), n.lookup(b.id); ac.Mapped || !bc.Mapped || bc.Offset != 0 {
				t.Errorf("b did not take a's slot: a mapped %v, b mapped %v at %d", ac.Mapped, bc.Mapped, bc.Offset)
			}
			n.mu.Unlock()
		}
		n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// stripeValue is what epoch e writes at word i of object o.
func stripeValue(e, o, i int) int32 { return int32(e*1_000_003 + o*65_537 + i) }

// writeStripes has every rank write its stripe of each 256 KiB object,
// then barrier: each object's non-home writer sends its half as a
// multi-fragment diff.
func writeStripes(n *Node, objs []Ptr[int32], words, e int) {
	lo, hi := n.ID()*words/n.N(), (n.ID()+1)*words/n.N()
	src := make([]int32, hi-lo)
	for o, p := range objs {
		for i := range src {
			src[i] = stripeValue(e, o, lo+i)
		}
		v := p.ViewRW(lo, hi-lo)
		v.CopyFrom(src)
		v.Release()
	}
	n.Barrier()
}

// TestReleasedSlabsNeverShowThroughObjects runs write-shared 256 KiB
// objects with the slab pool poisoning every slab it takes back. A
// barrier diff or a fetch reply released before its bytes were copied
// into the object — or a send-side payload put back before the endpoint
// copied it — would install 0xDB bytes.
func TestReleasedSlabsNeverShowThroughObjects(t *testing.T) {
	wire.SetSlabPoison(true)
	defer wire.SetSlabPoison(false)
	const objects, words, epochs = 4, 64 << 10, 3
	c := mustCluster(t, DefaultConfig(2))
	err := c.Run(func(n *Node) {
		objs := make([]Ptr[int32], objects)
		for o := range objs {
			objs[o] = Alloc[int32](n, words)
		}
		n.Barrier()
		for e := 0; e < epochs; e++ {
			writeStripes(n, objs, words, e)
			for o, p := range objs { // the non-home copy is fetched whole
				v := p.View(0, words)
				for i := range words {
					if got := v.At(i); got != stripeValue(e, o, i) {
						t.Errorf("node %d, epoch %d: object %d word %d = %#x, want %#x", n.ID(), e, o, i, got, stripeValue(e, o, i))
						break
					}
				}
				v.Release()
			}
			n.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMultiwriterEpochAllocations: in the benchmark's multiwriter shape
// (2 ranks over UDP, 16 write-shared 256 KiB objects, dense and sparse
// stripes), a steady-state epoch moves about 5 MiB of diffs and fetch
// replies, in pooled slabs that go back to the pool; the whole process
// allocates less than 1 MiB for it.
func TestMultiwriterEpochAllocations(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's instrumentation allocates")
	}
	const objects, words, ranks, sparseStep, epochs = 16, 64 << 10, 2, 16, 10
	cfg := DefaultConfig(ranks)
	cfg.DMMSize = 64 << 20
	cfg.Transport = TransportUDP
	c := mustCluster(t, cfg)
	var before, after runtime.MemStats
	err := c.Run(func(n *Node) {
		objs := make([]Ptr[int32], objects)
		for o := range objs {
			objs[o] = Alloc[int32](n, words)
		}
		lo, hi := n.ID()*words/ranks, (n.ID()+1)*words/ranks
		src := make([]int32, hi-lo)
		epoch := func(e int) {
			src[0] = int32(e)
			for o, p := range objs {
				v := p.ViewRW(lo, hi-lo)
				if o%2 == 0 {
					v.CopyFrom(src)
				} else {
					for i := 0; i < v.Len(); i += sparseStep {
						v.Set(i, int32(e*31+o*7+i))
					}
				}
				v.Release()
			}
			n.Barrier()
		}
		n.Barrier()
		for e := 0; e < 3; e++ { // settle the homes, fill the twin and slab pools
			epoch(e)
		}
		if n.ID() == 0 {
			runtime.ReadMemStats(&before)
		}
		for e := 3; e < 3+epochs; e++ {
			epoch(e)
		}
		if n.ID() == 0 {
			runtime.ReadMemStats(&after)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	perEpoch := (after.TotalAlloc - before.TotalAlloc) / epochs
	t.Logf("%d KiB, %d allocations per epoch", perEpoch>>10, (after.Mallocs-before.Mallocs)/epochs)
	if perEpoch >= 1<<20 {
		t.Errorf("a steady-state epoch allocates %d KiB, want under 1024", perEpoch>>10)
	}
}

// TestLockstepEpochAllocations: in the benchmark's lockstep shape (2
// ranks over TCP, 8 locks guarding a 64-word object each, 256 critical
// sections per rank and a RunBarrier per epoch), the whole process
// allocates at most maxPerCS times per critical section. On go1.24 it
// measured 23.9–24.7, three runs at a time on two cores included; when
// each section built two maps, allocated a fresh twin and copied and
// sorted its scope set twice it was 36.5–36.7. The bound has not been
// measured on go1.23. This guards the count before anything pools the
// single-fragment path.
func TestLockstepEpochAllocations(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's instrumentation allocates")
	}
	const locks, words, ranks, cs, epochs, maxPerCS = 8, 64, 2, 256, 8, 25.5
	cfg := DefaultConfig(ranks)
	cfg.DMMSize = 64 << 20
	cfg.Transport = TransportTCP
	c := mustCluster(t, cfg)
	var before, after runtime.MemStats
	err := c.Run(func(n *Node) {
		objs := make([]Ptr[int32], locks)
		for k := range objs {
			objs[k] = Alloc[int32](n, words)
		}
		me := n.ID()
		state := uint64(me) + 1 // this rank's xorshift lock choice
		epoch := func() {
			for i := 0; i < cs; i++ {
				state ^= state << 13
				state ^= state >> 7
				state ^= state << 17
				k := int(state>>33) % locks
				p := objs[k]
				n.Acquire(k)
				p.Set(me, p.Get(me)+1)
				p.Set(words-1, p.Get(words-1)+1)
				n.Release(k)
			}
			n.RunBarrier()
		}
		n.Barrier()
		for e := 0; e < 3; e++ { // settle the lock managers, fill the slab pools
			epoch()
		}
		if me == 0 {
			runtime.ReadMemStats(&before)
		}
		n.RunBarrier() // rank 1 starts counting once rank 0 has
		for e := 0; e < epochs; e++ {
			epoch()
		}
		if me == 0 {
			runtime.ReadMemStats(&after)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	perCS := float64(after.Mallocs-before.Mallocs) / (epochs * cs * ranks)
	t.Logf("%.2f allocations per critical section", perCS)
	if perCS > maxPerCS {
		t.Errorf("a critical section allocates %.2f times, want at most %v", perCS, maxPerCS)
	}
}
