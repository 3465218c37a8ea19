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
// allocates at most maxKiB KiB for it, in at most maxAllocs allocations.
// On go1.24 it measured 11–24 KiB in 388–397, three runs at a time on
// two cores included, most of them the UDP transport's per-frame flight
// records and socket reads. With a goroutine started for every request
// served it was 17–57 KiB in 458–467; with every delivered
// single-fragment payload (the sparse stripes' barrier diffs) a heap
// copy as well, 344 KiB in 553–578; with a fresh reply channel per call
// and a heap slice per UDP drain as well, 651–654 allocations.
func TestMultiwriterEpochAllocations(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's instrumentation allocates")
	}
	const objects, words, ranks, sparseStep, epochs, maxKiB, maxAllocs = 16, 64 << 10, 2, 16, 10, 192, 430
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
	allocs := (after.Mallocs - before.Mallocs) / epochs
	t.Logf("%d KiB, %d allocations per epoch", perEpoch>>10, allocs)
	if perEpoch>>10 > maxKiB {
		t.Errorf("a steady-state epoch allocates %d KiB, want at most %d", perEpoch>>10, maxKiB)
	}
	if allocs > maxAllocs {
		t.Errorf("a steady-state epoch allocates %d times, want at most %d", allocs, maxAllocs)
	}
}

// TestLockstepEpochAllocations: in the benchmark's lockstep shape (2
// ranks over TCP, 8 locks guarding a 64-word object each, 256 critical
// sections per rank and a RunBarrier per epoch), the whole process
// allocates at most maxPerCS times per critical section. On go1.24 it
// measured 0.00–0.11, three runs at a time on two cores included: what
// is left is a goroutine for a request that found no serve worker idle.
// With a goroutine started for every request served it was 2.44–2.58;
// with a heap copy of each delivered single-fragment payload as well,
// 5.94–6.18; with a fresh TCP frame record, reply channel, payload
// buffer, section record and diff per message or section as well,
// 23.9–24.7; and when each section also built two maps, allocated a
// fresh twin and copied and sorted its scope set twice, 36.5–36.7. The
// bound has not been measured on go1.23.
func TestLockstepEpochAllocations(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's instrumentation allocates")
	}
	const locks, words, ranks, cs, epochs, maxPerCS = 8, 64, 2, 256, 8, 0.5
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

// TestReleasedGrantsNeverShowThroughObjects runs the lock path with the
// slab pool poisoning every slab it takes back. Three ranks take turns
// on one lock guarding an object homed at rank 1: rank 1 writes under
// it; rank 0 acquires, its copy invalid the first round, so the grant's
// diff is deferred until its read fetches the object and replays it, and
// valid after that, so the diff is applied straight from the payload;
// rank 2 acquires from rank 0, whose grant is built from its
// DiffAccumulate chain in that mode. Grants that keep diffs aliasing
// their payload (deferred, or chained) must never be released, and every
// barrier's exit carries plans read only before it is: a payload released
// too early shows here as 0xDB words in an object.
func TestReleasedGrantsNeverShowThroughObjects(t *testing.T) {
	wire.SetSlabPoison(true)
	defer wire.SetSlabPoison(false)
	const words, rounds, lock = 256, 3, 0
	want := func(r, i int) int32 { return int32(r*1_000_003 + i*7 + 1) }
	for _, mode := range []DiffMode{DiffPerFieldStamps, DiffAccumulate} {
		cfg := DefaultConfig(3)
		cfg.Protocol.Diff = mode
		c := mustCluster(t, cfg)
		err := c.Run(func(n *Node) {
			x := Alloc[int32](n, words) // homed at rank 1
			check := func(r int) {
				v := x.View(0, words)
				for i := range words {
					if got := v.At(i); got != want(r, i) {
						t.Errorf("mode %v, rank %d, round %d: word %d = %#x, want %#x", mode, n.ID(), r, i, got, want(r, i))
						break
					}
				}
				v.Release()
			}
			if n.ID() == 1 { // a whole-object write, so the barrier plans x
				v := x.ViewRW(0, words)
				for i := range words {
					v.Set(i, want(-1, i))
				}
				v.Release()
			}
			n.Barrier() // x is invalid at ranks 0 and 2
			for r := 0; r < rounds; r++ {
				if n.ID() == 1 {
					n.Acquire(lock)
					v := x.ViewRW(0, words)
					for i := range words {
						v.Set(i, want(r, i))
					}
					v.Release()
					n.Release(lock)
				}
				n.RunBarrier()
				if n.ID() == 0 {
					n.Acquire(lock)
					n.Release(lock)
					check(r) // fetches x in round 0, then replays the deferred diff
				}
				n.RunBarrier()
				if n.ID() == 2 {
					n.Acquire(lock)
					n.Release(lock)
					check(r)
				}
				n.RunBarrier()
			}
			n.Barrier()
			check(rounds - 1)
			n.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestStencilEpochAllocations: in the benchmark's stencil shape (2 ranks
// over mem, two 1024² matrices striped by rows, a relax a→b, a barrier,
// a relax b→a, a barrier per epoch), a steady-state epoch allocates at
// most maxKiB KiB in at most maxAllocs allocations across the whole
// process. On go1.24 it measured 2.5–2.8 KiB in 0.8–5.0, three runs at
// a time on two cores included: a fetch that arrives ahead of its home's
// epoch parked, and a goroutine for a request that found no serve worker
// idle. With a goroutine started for every request served it was
// 3.1–3.6 KiB in 9.2–13.3; with every delivered single-fragment payload
// a heap copy and the barrier's slices and payloads fresh each time as
// well, 268.5 KiB in 61.5.
func TestStencilEpochAllocations(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's instrumentation allocates")
	}
	const dim, ranks, epochs, maxKiB, maxAllocs = 1024, 2, 20, 6, 8
	cfg := DefaultConfig(ranks)
	cfg.DMMSize = 64 << 20 // both grids resident, as in the workload
	c := mustCluster(t, cfg)
	var before, after runtime.MemStats
	err := c.Run(func(n *Node) {
		a, b := AllocMatrix[float64](n, dim, dim), AllocMatrix[float64](n, dim, dim)
		lo, hi := n.ID()*dim/ranks, (n.ID()+1)*dim/ranks
		row := make([]float64, dim)
		for r := lo; r < hi; r++ {
			for c := range row {
				row[c] = float64(r*dim+c) / (dim * dim)
			}
			a.SetRow(r, row)
			b.SetRow(r, row)
		}
		relax := func(dst, src Matrix[float64], r int) {
			up, mid, down := src.RowView(r-1), src.RowView(r), src.RowView(r+1)
			out := dst.RowViewRW(r)
			for c := 1; c < dim-1; c++ {
				out.Set(c, 0.25*(up.At(c)+down.At(c)+mid.At(c-1)+mid.At(c+1)))
			}
			out.Release()
			down.Release()
			mid.Release()
			up.Release()
		}
		epoch := func() {
			for _, m := range [2][2]Matrix[float64]{{a, b}, {b, a}} {
				for r := max(lo, 1); r < min(hi, dim-1); r++ {
					relax(m[1], m[0], r)
				}
				n.Barrier()
			}
		}
		n.Barrier()
		for e := 0; e < 3; e++ { // fetch the halo rows, settle the homes, fill the pools
			epoch()
		}
		if n.ID() == 0 {
			runtime.ReadMemStats(&before)
		}
		n.RunBarrier() // rank 1 starts counting once rank 0 has
		for e := 0; e < epochs; e++ {
			epoch()
		}
		if n.ID() == 0 {
			runtime.ReadMemStats(&after)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	perEpoch := float64(after.TotalAlloc-before.TotalAlloc) / epochs / 1024
	allocs := float64(after.Mallocs-before.Mallocs) / epochs
	t.Logf("%.1f KiB, %.1f allocations per epoch", perEpoch, allocs)
	if perEpoch > maxKiB {
		t.Errorf("a steady-state epoch allocates %.1f KiB, want at most %d", perEpoch, maxKiB)
	}
	if allocs > maxAllocs {
		t.Errorf("a steady-state epoch allocates %.1f times, want at most %d", allocs, maxAllocs)
	}
}
