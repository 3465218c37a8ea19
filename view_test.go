package lots

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// View lifetime and semantics tests: the zero-copy span API must honor
// the same coherence protocol as element-wise access while adding pin
// lifetime, mutation-window, and misuse-detection behaviour of its own.

func TestViewBasicReadWrite(t *testing.T) {
	c, err := NewCluster(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Run(func(n *Node) {
		a := Alloc[int32](n, 64)
		w := a.ViewRW(0, 64)
		if w.Len() != 64 || !w.RW() {
			panic(fmt.Sprintf("ViewRW: len %d rw %v", w.Len(), w.RW()))
		}
		for i := 0; i < 64; i++ {
			w.Set(i, int32(i*3))
		}
		w.Release()
		// Element-wise reads see the view's writes.
		for i := 0; i < 64; i++ {
			if got := a.Get(i); got != int32(i*3) {
				panic(fmt.Sprintf("a[%d] = %d after view writes", i, got))
			}
		}
		// Read view over a sub-span, with pointer-arithmetic base.
		r := a.Add(8).View(8, 16) // elements 16..31
		for k := 0; k < 16; k++ {
			if got := r.At(k); got != int32((16+k)*3) {
				panic(fmt.Sprintf("view at %d = %d", k, got))
			}
		}
		// CopyTo / CopyFrom round trip.
		buf := make([]int32, 16)
		if m := r.CopyTo(buf); m != 16 {
			panic(fmt.Sprintf("CopyTo copied %d", m))
		}
		r.Release()
		w2 := a.ViewRW(0, 16)
		if m := w2.CopyFrom(buf); m != 16 {
			panic(fmt.Sprintf("CopyFrom copied %d", m))
		}
		w2.Release()
		if got := a.Get(0); got != int32(16*3) {
			panic(fmt.Sprintf("a[0] = %d after CopyFrom", got))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestViewSliceSharesPinAndRelease(t *testing.T) {
	c, err := NewCluster(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Run(func(n *Node) {
		a := Alloc[int32](n, 32)
		w := a.ViewRW(0, 32)
		s := w.Slice(8, 16)
		if s.Len() != 8 {
			panic(fmt.Sprintf("slice len %d", s.Len()))
		}
		s.Set(0, 99) // element 8 of the parent
		if got := w.At(8); got != 99 {
			panic(fmt.Sprintf("parent sees %d through slice write", got))
		}
		s.Release() // releasing the alias releases the span once
		if got := a.Get(8); got != 99 {
			panic(fmt.Sprintf("a[8] = %d", got))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestViewRWReleasedOutsideCriticalSection is the lifetime edge case
// the API documents as legal: the lock release computes diffs from the
// bytes already written, so the view's Release may trail the critical
// section — the writes still propagate with the lock grant.
func TestViewRWReleasedOutsideCriticalSection(t *testing.T) {
	c, err := NewCluster(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Run(func(n *Node) {
		a := Alloc[int32](n, 64)
		n.Barrier()
		if n.ID() == 0 {
			n.Acquire(1)
			v := a.ViewRW(0, 64)
			for i := 0; i < 64; i++ {
				v.Set(i, int32(100+i))
			}
			n.Release(1) // leave the CS first...
			v.Release()  // ...then release the view
		}
		n.RunBarrier() // order node 1's acquire after node 0's release
		if n.ID() == 1 {
			n.Acquire(1)
			for i := 0; i < 64; i++ {
				if got := a.Get(i); got != int32(100+i) {
					panic(fmt.Sprintf("node 1 sees a[%d] = %d; view writes lost", i, got))
				}
			}
			n.Release(1)
		}
		n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestViewWritesPropagateAtBarrier: writes made through an RW view are
// reconciled by the barrier protocol exactly like Set writes (twin +
// diff machinery is shared).
func TestViewWritesPropagateAtBarrier(t *testing.T) {
	c, err := NewCluster(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Run(func(n *Node) {
		a := Alloc[int32](n, 32)
		n.Barrier()
		if n.ID() == 0 {
			v := a.ViewRW(0, 32)
			for i := 0; i < 32; i++ {
				v.Set(i, int32(7*i))
			}
			v.Release()
		}
		n.Barrier() // sole writer: home migrates, node 1 invalidates
		for i := 0; i < 32; i++ {
			if got := a.Get(i); got != int32(7*i) {
				panic(fmt.Sprintf("node %d sees a[%d] = %d", n.ID(), i, got))
			}
		}
		n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestViewPinBlocksEvictionUnderAllocStorm holds a view on a hot object
// while an allocation storm churns several DMM areas' worth of cold
// objects through the arena: the pin must hold the hot object resident
// (its mapped bytes stay valid) while the storm evicts around it.
func TestViewPinBlocksEvictionUnderAllocStorm(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.DMMSize = 64 << 10
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Run(func(n *Node) {
		hot := Alloc[int32](n, 4096) // 16 KB of the 64 KB arena
		v := hot.ViewRW(0, 4096)
		for i := 0; i < 4096; i++ {
			v.Set(i, int32(i^0x5a))
		}
		// Storm: 8 KB objects totalling 4x the arena, each touched so it
		// maps in and forces evictions.
		for k := 0; k < 32; k++ {
			p := Alloc[int32](n, 2048)
			p.Set(0, int32(k))
		}
		// The hot object's mapped bytes must still be ours: if the pin
		// had been ignored, the arena bytes under the view would now
		// belong to a cold object.
		for i := 0; i < 4096; i++ {
			if got := v.At(i); got != int32(i^0x5a) {
				panic(fmt.Sprintf("hot[%d] = %d mid-storm; pinned object was evicted", i, got))
			}
		}
		v.Release()
		for i := 0; i < 4096; i++ {
			if got := hot.Get(i); got != int32(i^0x5a) {
				panic(fmt.Sprintf("hot[%d] = %d after release", i, got))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	total := c.Total()
	if total.SwapOuts == 0 {
		t.Error("alloc storm evicted nothing; the test exerted no pressure")
	}
	if total.PinDenls == 0 {
		t.Error("no pin denials counted; eviction never considered the pinned object")
	}
}

// TestFetchNeverTornByOpenRWView: a peer's fetch that lands inside an
// RW view's mutation window must be deferred until Release, so the
// served copy is always a post-window snapshot, never a torn mixture
// (and, under -race, never a byte-level data race). Channels pin the
// schedule: the peer's fetch is issued only once the home's mutation
// window is provably open.
func TestFetchNeverTornByOpenRWView(t *testing.T) {
	const words, sweeps = 2048, 6
	c, err := NewCluster(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	viewOpen := make(chan struct{})
	fetching := make(chan struct{})
	var got []int32 // node 1's fetched snapshot, asserted after Run
	err = c.Run(func(n *Node) {
		a := Alloc[int32](n, words)
		n.Barrier()
		if n.ID() == 0 {
			a.Set(0, 0)
		}
		n.Barrier() // home -> node 0; node 1 invalid, must fetch
		if n.ID() == 0 {
			v := a.ViewRW(0, words)
			for i := 0; i < words; i++ {
				v.Set(i, 1)
			}
			close(viewOpen)
			<-fetching
			for sweep := 2; sweep <= sweeps; sweep++ {
				for i := 0; i < words; i++ {
					v.Set(i, int32(sweep))
				}
			}
			v.Release() // closes the window; the parked fetch may now serve
		} else {
			<-viewOpen
			close(fetching)
			got = a.GetN(0, words) // fetches from node 0 mid-window
		}
		n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < words; i++ {
		if got[i] != got[0] {
			t.Fatalf("torn fetch: a[0]=%d but a[%d]=%d", got[0], i, got[i])
		}
	}
	if got[0] != sweeps {
		t.Fatalf("fetch served mid-window: saw %d, want %d", got[0], sweeps)
	}
}

// TestGrantNeverTornByOpenRWView: the homeless grant path reads object
// bytes on a serve goroutine; like fetch service, it must defer while
// the object is mid-mutation under an open RW view, so a grant diff is
// always a post-window snapshot, never a torn mixture (nor, under
// -race, a byte-level data race with the view's lock-free writes). The
// test pins the schedule with channels: the peer's acquire is issued
// only once the writer's post-CS mutation window is provably open, so
// without the gate the grant read and the view writes always overlap.
func TestGrantNeverTornByOpenRWView(t *testing.T) {
	const words, sweeps = 2048, 6
	c, err := NewCluster(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	viewOpen := make(chan struct{})
	acquiring := make(chan struct{})
	var got []int32 // node 1's in-CS snapshot, asserted after Run
	err = c.Run(func(n *Node) {
		a := Alloc[int32](n, words)
		n.Barrier()
		if n.ID() == 0 {
			// Stamp every word under the lock so the next grant for it
			// must carry the whole span.
			n.Acquire(2)
			w := a.ViewRW(0, words)
			for i := 0; i < words; i++ {
				w.Set(i, 1)
			}
			w.Release()
			n.Release(2)
			// Open a post-CS mutation window and only then let the peer
			// acquire: its grant request lands while this span is
			// provably mid-mutation.
			v := a.ViewRW(0, words)
			close(viewOpen)
			<-acquiring
			for sweep := 2; sweep <= sweeps; sweep++ {
				for i := 0; i < words; i++ {
					v.Set(i, int32(sweep))
				}
			}
			v.Release() // closes the window; the parked grant may now read
		} else {
			<-viewOpen
			close(acquiring)
			n.Acquire(2)
			got = a.GetN(0, words)
			n.Release(2)
		}
		n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < words; i++ {
		if got[i] != got[0] {
			t.Fatalf("torn grant: a[0]=%d but a[%d]=%d", got[0], i, got[i])
		}
	}
	// The grant must have been served after the mutation window closed,
	// so the snapshot is the final sweep's value.
	if got[0] != sweeps {
		t.Fatalf("grant served mid-window: saw %d, want %d", got[0], sweeps)
	}
}

// TestReadViewNotTornByHomeBasedFlush: under the home-based lock
// ablation, a release flushes diffs to the object's home mid-epoch on
// a serve goroutine. That write must defer while the home holds ANY
// open view — including a read-only one — so a lock-free reader never
// observes a torn update.
func TestReadViewNotTornByHomeBasedFlush(t *testing.T) {
	const words = 2048
	cfg := DefaultConfig(2)
	cfg.Protocol.Lock = LockHomeBased
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	viewOpen := make(chan struct{})
	releasing := make(chan struct{})
	flushed := make(chan struct{})
	var fail string // set by node 0, checked after Run
	err = c.Run(func(n *Node) {
		_ = Alloc[int32](n, 4) // ID 1, homed at node 1
		a := Alloc[int32](n, words)
		// a is object ID 2: homed at node 0, which will hold the view.
		n.Barrier()
		if n.ID() == 1 {
			<-viewOpen
			n.Acquire(3) // manager: node 1
			for i := 0; i < words; i++ {
				a.Set(i, 5)
			}
			close(releasing)
			n.Release(3) // home-based flush to node 0 blocks on the ack
			close(flushed)
		} else {
			v := a.View(0, words)
			close(viewOpen)
			<-releasing
			// The peer's flush is in flight; sweep the open view — every
			// read must still see the pre-flush zeros.
			for sweep := 0; sweep < 4; sweep++ {
				for i := 0; i < words; i++ {
					if got := v.At(i); got != 0 {
						fail = fmt.Sprintf("read view saw flushed value %d at [%d]", got, i)
						break
					}
				}
			}
			v.Release() // window closes; the parked flush applies
			<-flushed
			if got := a.Get(0); got != 5 {
				fail = fmt.Sprintf("flush lost: a[0] = %d after release", got)
			}
		}
		n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if fail != "" {
		t.Fatal(fail)
	}
}

// runExpectError runs fn on a single-node cluster and asserts the
// runtime aborts with an error mentioning want.
func runExpectError(t *testing.T, want string, fn func(n *Node)) {
	t.Helper()
	c, err := NewCluster(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Run(fn)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run error = %v, want mention of %q", err, want)
	}
}

func TestViewOutOfBounds(t *testing.T) {
	runExpectError(t, "out of bounds", func(n *Node) {
		a := Alloc[int32](n, 16)
		a.View(4, 13) // [4,17) over 16 elements
	})
	runExpectError(t, "out of bounds", func(n *Node) {
		a := Alloc[int32](n, 16)
		a.ViewRW(-1, 4)
	})
	runExpectError(t, "out of bounds", func(n *Node) {
		a := Alloc[int32](n, 16)
		a.Add(8).View(8, 1) // pointer arithmetic past the end
	})
	// (first+count)*8 wraps to 0 and to 8: the multiplied check let both
	// through and returned a view of Len() 0. The count is 1<<61 where
	// int is 64 bits and 1<<29 where it is 32.
	for _, first := range []int{0, 1} {
		runExpectError(t, "out of bounds", func(n *Node) {
			a := Alloc[int64](n, 1024)
			a.View(first, math.MaxInt/4+1)
		})
	}
}

func TestViewIndexOutOfRange(t *testing.T) {
	for _, k := range []int{-1, 8} { // 8 == Len(): the span is [2,10) of 16
		runExpectError(t, "index out of range", func(n *Node) {
			a := Alloc[int32](n, 16)
			v := a.View(2, 8)
			defer v.Release()
			v.At(k)
		})
		runExpectError(t, "index out of range", func(n *Node) {
			a := Alloc[int32](n, 16)
			v := a.ViewRW(2, 8)
			defer v.Release()
			v.Set(k, 1)
		})
	}
}

func TestViewDoubleReleaseFails(t *testing.T) {
	runExpectError(t, "double Release", func(n *Node) {
		a := Alloc[int32](n, 8)
		v := a.View(0, 8)
		v.Release()
		v.Release()
	})
	// Releasing a Slice alias after the parent is the same double free.
	runExpectError(t, "double Release", func(n *Node) {
		a := Alloc[int32](n, 8)
		v := a.ViewRW(0, 8)
		s := v.Slice(0, 4)
		v.Release()
		s.Release()
	})
}

func TestViewUseAfterReleaseFails(t *testing.T) {
	runExpectError(t, "released view", func(n *Node) {
		a := Alloc[int32](n, 8)
		v := a.View(0, 8)
		v.Release()
		v.At(0)
	})
}

// expectPanic runs f on the application goroutine and panics unless f
// panicked with a value mentioning want, so a test can provoke one view
// failure and go on using the node.
func expectPanic(want string, f func()) {
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), want) {
			panic(fmt.Sprintf("panic value %v, want mention of %q", r, want))
		}
	}()
	f()
}

// A released view's state goes back to the node's free list and the
// next open — of any object — takes it. Every alias of the released
// view must still fail, by generation, and failing must leave the new
// owner of the state untouched.
func TestViewStaleAliasAfterStateRecycled(t *testing.T) {
	c := mustCluster(t, DefaultConfig(1))
	err := c.Run(func(n *Node) {
		a, b := Alloc[int32](n, 8), Alloc[int64](n, 8)
		v := a.ViewRW(0, 8)
		alias := v.Slice(2, 6)
		v.Release()
		w := b.ViewRW(0, 8)
		if w.s != v.s {
			panic("the open after a Release did not recycle its view state")
		}
		w.Set(3, 33)
		expectPanic("released view", func() { v.At(0) })
		expectPanic("released view", func() { alias.Set(0, 1) })
		expectPanic("released view", func() { alias.Slice(0, 1) })
		expectPanic("released view", func() { v.CopyTo(make([]int32, 1)) })
		expectPanic("double Release", func() { v.Release() })
		expectPanic("double Release", func() { alias.Release() })
		// None of that released, wrote through or unpinned w.
		if got := w.At(3); got != 33 || w.ObjectID() != b.ObjectID() || !w.RW() {
			panic(fmt.Sprintf("w after stale accesses: At(3)=%d object %d rw %v", got, w.ObjectID(), w.RW()))
		}
		w.Release()
		if got := a.Get(2); got != 0 {
			panic(fmt.Sprintf("a[2] = %d: a stale alias wrote", got))
		}
		if len(n.viewFree) != 1 {
			panic(fmt.Sprintf("%d free view states, want the one state both opens used", len(n.viewFree)))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Opening, using and releasing a view of a resident object allocates
// nothing: the state is recycled, and At/Set are a load and a store.
func TestViewOpenAccessReleaseAllocatesNothing(t *testing.T) {
	for _, los := range []bool{true, false} {
		cfg := DefaultConfig(1)
		cfg.LargeObjectSpace = los
		c := mustCluster(t, cfg)
		err := c.Run(func(n *Node) {
			a := Alloc[float64](n, 64)
			a.Set(0, 1) // mapped in, twinned for the epoch
			var sum float64
			ro := testing.AllocsPerRun(50, func() {
				v := a.View(8, 16)
				sum += v.At(3)
				v.Release()
			})
			rw := testing.AllocsPerRun(50, func() {
				v := a.ViewRW(8, 16)
				v.Set(3, v.At(3)+1)
				v.Release()
			})
			if ro != 0 || rw != 0 {
				panic(fmt.Sprintf("LargeObjectSpace=%v: open+access+release allocates %v (RO) / %v (RW) times, want 0", los, ro, rw))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestViewWriteThroughReadOnlyFails(t *testing.T) {
	runExpectError(t, "read-only view", func(n *Node) {
		a := Alloc[int32](n, 8)
		v := a.View(0, 8)
		defer v.Release()
		v.Set(0, 1)
	})
	runExpectError(t, "read-only view", func(n *Node) {
		a := Alloc[int32](n, 8)
		v := a.View(0, 8)
		defer v.Release()
		v.CopyFrom([]int32{1})
	})
}

// TestRunJoinsAllNodeErrors: a multi-node failure must surface every
// node's panic, not just the lowest-ranked one.
func TestRunJoinsAllNodeErrors(t *testing.T) {
	c, err := NewCluster(DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Run(func(n *Node) {
		switch n.ID() {
		case 1:
			panic("boom-one")
		case 2:
			panic("boom-two")
		}
	})
	if err == nil {
		t.Fatal("Run returned nil for panicking nodes")
	}
	for _, want := range []string{"node 1", "boom-one", "node 2", "boom-two"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
}

// checkViewCopy holds the bulk CopyFrom/CopyTo/SetN/GetN to the
// element-by-element codec, bit for bit: on whole views, on Slice'd
// views, and with src/dst shorter and longer than the view. The
// per-element functions are called directly, so that path keeps running
// on little-endian hosts, where the accessors never take it.
func checkViewCopy[T Elem](n *Node, vals []T) {
	var z T
	name := fmt.Sprintf("%T", z)
	es := elemSize[T]()
	a := Alloc[T](n, len(vals)+5)
	for _, span := range [][2]int{{0, len(vals) + 5}, {3, len(vals)}, {2, 2 + len(vals)}} {
		whole := a.ViewRW(0, len(vals)+5)
		v := whole.Slice(span[0], span[1])
		want := bytes.Clone(v.bytes)
		m := min(len(vals), v.Len())
		putElemsEach(want[:m*es], vals[:m])
		if got := v.CopyFrom(vals); got != m {
			panic(fmt.Sprintf("%s: CopyFrom over %v copied %d, want %d", name, span, got, m))
		}
		if !bytes.Equal(v.bytes, want) {
			panic(fmt.Sprintf("%s: CopyFrom over %v wrote\n%x, per-element codec writes\n%x", name, span, v.bytes, want))
		}
		for _, dl := range []int{m - 1, v.Len(), v.Len() + 3} {
			dst, ref := make([]T, dl), make([]T, dl)
			k := min(dl, v.Len())
			getElemsEach(ref[:k], v.bytes[:k*es])
			if got := v.CopyTo(dst); got != k {
				panic(fmt.Sprintf("%s: CopyTo into %d copied %d, want %d", name, dl, got, k))
			}
			if !bytes.Equal(elemBytes(dst), elemBytes(ref)) {
				panic(fmt.Sprintf("%s: CopyTo over %v read %v, per-element codec reads %v", name, span, dst, ref))
			}
		}
		buf := make([]T, v.Len())
		if allocs := testing.AllocsPerRun(20, func() { v.CopyTo(buf); v.CopyFrom(buf) }); allocs != 0 {
			panic(fmt.Sprintf("%s: CopyTo+CopyFrom allocate %v times, want 0", name, allocs))
		}
		whole.Release()
	}
	a.SetN(1, vals)
	ref := make([]byte, len(vals)*es)
	putElemsEach(ref, vals)
	if got := a.GetN(1, len(vals)); !bytes.Equal(elemBytes(got), elemBytes(vals)) {
		panic(fmt.Sprintf("%s: GetN after SetN = %v, want %v", name, got, vals))
	}
	r := a.View(1, len(vals))
	if !bytes.Equal(r.bytes, ref) {
		panic(fmt.Sprintf("%s: SetN wrote %x, per-element codec writes %x", name, r.bytes, ref))
	}
	r.Release()
}

// checkViewElems holds the typed At/Set (and Ptr.Get/Set, which share
// their load and store) to the element-by-element codec, bit for bit,
// through views opened at odd Ptr.Add offsets and narrowed by Slice:
// what Set writes, getElemsEach reads back, and what putElemsEach
// writes, At reads back.
func checkViewElems[T Elem](n *Node, vals []T) {
	var z T
	name := fmt.Sprintf("%T", z)
	es := elemSize[T]()
	a := Alloc[T](n, len(vals)+7)
	rev := slices.Clone(vals)
	slices.Reverse(rev)
	same := func(x, y T) bool { return bytes.Equal(elemBytes([]T{x}), elemBytes([]T{y})) }
	for _, at := range [][3]int{{0, 0, 0}, {3, 1, 0}, {1, 2, 3}, {5, 0, 1}} { // Add, View first, Slice lo
		whole := a.Add(at[0]).ViewRW(at[1], len(vals)+at[2])
		v := whole.Slice(at[2], at[2]+len(vals))
		for k, x := range vals {
			v.Set(k, x)
		}
		want := make([]byte, len(vals)*es)
		putElemsEach(want, vals)
		if !bytes.Equal(v.bytes, want) {
			panic(fmt.Sprintf("%s at %v: Set wrote\n%x, per-element codec writes\n%x", name, at, v.bytes, want))
		}
		back := make([]T, len(vals))
		getElemsEach(back, v.bytes)
		if !bytes.Equal(elemBytes(back), elemBytes(vals)) {
			panic(fmt.Sprintf("%s at %v: per-element codec reads %v back from Set's %v", name, at, back, vals))
		}
		putElemsEach(v.bytes, rev)
		for k, x := range rev {
			if got := v.At(k); !same(got, x) {
				panic(fmt.Sprintf("%s at %v: At(%d) = %v, per-element codec wrote %v", name, at, k, got, x))
			}
		}
		whole.Release()
		// The same elements through the one-element accessors.
		first := at[0] + at[1] + at[2]
		for k, x := range rev {
			if got := a.Get(first + k); !same(got, x) {
				panic(fmt.Sprintf("%s at %v: Get(%d) = %v, want %v", name, at, first+k, got, x))
			}
			a.Set(first+k, vals[k])
		}
		r := a.View(first, len(vals))
		if !bytes.Equal(r.bytes, want) {
			panic(fmt.Sprintf("%s at %v: Ptr.Set wrote\n%x, per-element codec writes\n%x", name, at, r.bytes, want))
		}
		r.Release()
	}
}

// The codec tests' values, per element type: zeros, sign and exponent
// extremes, byte patterns that read differently in either byte order,
// and NaNs with payloads.
var (
	codecByte    = []byte{0, 1, 0x7F, 0x80, 0xFF, 7, 9}
	codecInt32   = []int32{0, -1, math.MinInt32, math.MaxInt32, 0x01020304, -0x01020304, 5}
	codecUint32  = []uint32{0, 1, math.MaxUint32, 0x80000000, 0x01020304, 0xFFFEFDFC, 5}
	codecInt64   = []int64{0, -1, math.MinInt64, math.MaxInt64, 0x0102030405060708, -0x0102030405060708, 5}
	codecUint64  = []uint64{0, 1, math.MaxUint64, 1 << 63, 0x0102030405060708, 0xFFFEFDFCFBFAF9F8, 5}
	codecFloat32 = []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(-1)), math.MaxFloat32,
		math.SmallestNonzeroFloat32, math.Float32frombits(0x7FC00001), math.Float32frombits(0xFFA5A5A5)}
	codecFloat64 = []float64{0, math.Copysign(0, -1), math.Inf(-1), math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Float64frombits(0x7FF8000000000001), math.Float64frombits(0xFFF5A5A5A5A5A5A5)}
)

func TestViewCopyMatchesPerElementCodec(t *testing.T) {
	c := mustCluster(t, DefaultConfig(1))
	err := c.Run(func(n *Node) {
		checkViewCopy(n, codecByte)
		checkViewCopy(n, codecInt32)
		checkViewCopy(n, codecUint32)
		checkViewCopy(n, codecInt64)
		checkViewCopy(n, codecUint64)
		checkViewCopy(n, codecFloat32)
		checkViewCopy(n, codecFloat64)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestViewElemMatchesPerElementCodec(t *testing.T) {
	for _, los := range []bool{true, false} { // DMM arena slots, then Go-heap objects
		cfg := DefaultConfig(1)
		cfg.LargeObjectSpace = los
		c := mustCluster(t, cfg)
		err := c.Run(func(n *Node) {
			checkViewElems(n, codecByte)
			checkViewElems(n, codecInt32)
			checkViewElems(n, codecUint32)
			checkViewElems(n, codecInt64)
			checkViewElems(n, codecUint64)
			checkViewElems(n, codecFloat32)
			checkViewElems(n, codecFloat64)
		})
		if err != nil {
			t.Fatalf("LargeObjectSpace=%v: %v", los, err)
		}
	}
}

// A twin retired at one barrier becomes the twin of another object of
// the same size in the next epoch, so it must be overwritten in full
// first. Two write-shared objects are written in alternating epochs,
// every rank its own stripe: a twin still holding the other object's
// bytes would yield diffs that drop this rank's words or carry the
// other ranks' stale ones. The digest is the one the pre-recycling
// runtime produced for this workload.
func TestRecycledTwinIsOverwrittenBeforeUse(t *testing.T) {
	const nodes, words, epochs = 3, 96, 8
	const seedDigest = "1f3b15a1323ba211365f1f6b21a35c7d1f8ca7688b7df169abc50e1065427d79"
	c := mustCluster(t, DefaultConfig(nodes))
	digests := make([]string, nodes)
	err := c.Run(func(n *Node) {
		objs := [2]Ptr[int64]{Alloc[int64](n, words), Alloc[int64](n, words)}
		n.Barrier()
		lo, hi := n.ID()*words/nodes, (n.ID()+1)*words/nodes
		for e := 0; e < epochs; e++ {
			v := objs[e%2].ViewRW(lo, hi-lo)
			for k := 0; k < v.Len(); k += 1 + e%3 { // sparse, so diffs have gaps
				v.Set(k, int64(e)<<32|int64(lo+k))
			}
			v.Release()
			n.Barrier()
			if e > 0 {
				n.mu.Lock()
				recycled := len(n.twinFree[words*8])
				n.mu.Unlock()
				if recycled != 1 {
					panic(fmt.Sprintf("epoch %d: %d free twins, want the one recycled each epoch", e, recycled))
				}
			}
		}
		h := sha256.New()
		buf := make([]int64, words)
		for _, p := range objs {
			v := p.View(0, words)
			v.CopyTo(buf)
			v.Release()
			for _, x := range buf {
				fmt.Fprintf(h, "%d ", x)
			}
		}
		digests[n.ID()] = fmt.Sprintf("%x", h.Sum(nil))
		n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range digests {
		if d != seedDigest {
			t.Errorf("node %d digest %s, want %s", i, d, seedDigest)
		}
	}
}
