package lots

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/object"
)

func mustCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestSingleNodeAllocGetSet(t *testing.T) {
	c := mustCluster(t, DefaultConfig(1))
	err := c.Run(func(n *Node) {
		a := Alloc[int32](n, 100)
		if got := a.Get(0); got != 0 {
			panic(fmt.Sprintf("initial value = %d", got))
		}
		a.Set(7, 42)
		a.Set(99, -1)
		if a.Get(7) != 42 || a.Get(99) != -1 {
			panic("readback failed")
		}
		if a.Len() != 100 {
			panic("Len wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestElementTypes(t *testing.T) {
	c := mustCluster(t, DefaultConfig(1))
	err := c.Run(func(n *Node) {
		b := Alloc[byte](n, 10)
		b.Set(3, 200)
		if b.Get(3) != 200 {
			panic("byte")
		}
		f := Alloc[float64](n, 10)
		f.Set(2, 3.14159)
		if f.Get(2) != 3.14159 {
			panic("float64")
		}
		u := Alloc[uint64](n, 4)
		u.Set(0, 1<<60)
		if u.Get(0) != 1<<60 {
			panic("uint64")
		}
		g := Alloc[float32](n, 4)
		g.Set(1, -2.5)
		if g.Get(1) != -2.5 {
			panic("float32")
		}
		i64 := Alloc[int64](n, 4)
		i64.Set(0, -1<<40)
		if i64.Get(0) != -1<<40 {
			panic("int64")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierPropagatesWrites(t *testing.T) {
	c := mustCluster(t, DefaultConfig(4))
	err := c.Run(func(n *Node) {
		a := Alloc[int32](n, 64)
		if n.ID() == 2 {
			for i := 0; i < 64; i++ {
				a.Set(i, int32(i*i))
			}
		}
		n.Barrier()
		for i := 0; i < 64; i++ {
			if got := a.Get(i); got != int32(i*i) {
				panic(fmt.Sprintf("node %d: a[%d] = %d, want %d", n.ID(), i, got, i*i))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHomeMigratesToSoleWriter(t *testing.T) {
	c := mustCluster(t, DefaultConfig(4))
	var homeAfter atomic.Int64
	err := c.Run(func(n *Node) {
		a := Alloc[int32](n, 16)
		if n.ID() == 3 {
			a.Set(0, 7)
		}
		n.Barrier()
		if n.ID() == 0 {
			n.mu.Lock()
			homeAfter.Store(int64(n.lookup(object.ID(a.ObjectID())).Home))
			n.mu.Unlock()
		}
		n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if homeAfter.Load() != 3 {
		t.Errorf("home after barrier = %d, want sole writer 3", homeAfter.Load())
	}
	// The sole-writer migration must involve no barrier diff traffic.
	if total := c.Total(); total.HomeMigrates == 0 {
		t.Error("no home migration counted")
	}
}

func TestMultiWriterMergeAtBarrier(t *testing.T) {
	// Each node writes a disjoint quarter of the object; the barrier
	// must merge all quarters at the home and every node must then read
	// the complete object.
	const nodes = 4
	c := mustCluster(t, DefaultConfig(nodes))
	err := c.Run(func(n *Node) {
		a := Alloc[int32](n, 64)
		per := 64 / nodes
		base := n.ID() * per
		for i := 0; i < per; i++ {
			a.Set(base+i, int32(n.ID()+1))
		}
		n.Barrier()
		for i := 0; i < 64; i++ {
			want := int32(i/per + 1)
			if got := a.Get(i); got != want {
				panic(fmt.Sprintf("node %d: a[%d] = %d, want %d", n.ID(), i, got, want))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedBarrierRounds(t *testing.T) {
	// Rotating writer across epochs: exercises home migration chains
	// and invalidation/refetch in sequence.
	const nodes = 3
	const rounds = 6
	c := mustCluster(t, DefaultConfig(nodes))
	err := c.Run(func(n *Node) {
		a := Alloc[int32](n, 32)
		for r := 0; r < rounds; r++ {
			writer := r % nodes
			if n.ID() == writer {
				a.Set(r, int32(100+r))
			}
			n.Barrier()
			for k := 0; k <= r; k++ {
				if got := a.Get(k); got != int32(100+k) {
					panic(fmt.Sprintf("node %d round %d: a[%d] = %d", n.ID(), r, k, got))
				}
			}
			n.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLockMutualExclusionAndScope(t *testing.T) {
	// Classic shared counter: increments under a lock must not be lost.
	// This exercises the homeless write-update path: each grant carries
	// the counter's scope updates to the next acquirer.
	const nodes = 4
	const perNode = 25
	c := mustCluster(t, DefaultConfig(nodes))
	err := c.Run(func(n *Node) {
		ctr := Alloc[int32](n, 1)
		for i := 0; i < perNode; i++ {
			n.Acquire(5)
			ctr.Set(0, ctr.Get(0)+1)
			n.Release(5)
		}
		n.Barrier()
		if got := ctr.Get(0); got != nodes*perNode {
			panic(fmt.Sprintf("node %d: counter = %d, want %d", n.ID(), got, nodes*perNode))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScopeConsistencyChain(t *testing.T) {
	// P0 writes x under L then releases; P1 acquires L (sees x), writes
	// y, releases; P2 acquires L and must see BOTH x and y (transitive
	// visibility through the lock's scope).
	c := mustCluster(t, DefaultConfig(3))
	err := c.Run(func(n *Node) {
		x := Alloc[int32](n, 4)
		y := Alloc[int32](n, 4)
		turn := Alloc[int32](n, 1)
		_ = turn
		switch n.ID() {
		case 0:
			n.Acquire(1)
			x.Set(0, 11)
			n.Release(1)
			n.RunBarrier() // stage gate (event only)
			n.RunBarrier()
		case 1:
			n.RunBarrier() // wait for P0's release
			n.Acquire(1)
			if got := x.Get(0); got != 11 {
				panic(fmt.Sprintf("P1 sees x = %d, want 11", got))
			}
			y.Set(0, 22)
			n.Release(1)
			n.RunBarrier()
		case 2:
			n.RunBarrier()
			n.RunBarrier() // wait for P1's release
			n.Acquire(1)
			if got := x.Get(0); got != 11 {
				panic(fmt.Sprintf("P2 sees x = %d, want 11", got))
			}
			if got := y.Get(0); got != 22 {
				panic(fmt.Sprintf("P2 sees y = %d, want 22", got))
			}
			n.Release(1)
		}
		n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLocksAfterBarrierStartClean(t *testing.T) {
	// After a barrier, lock versions are synchronized cluster-wide, so
	// the first post-barrier grant should carry no stale diffs.
	c := mustCluster(t, DefaultConfig(2))
	err := c.Run(func(n *Node) {
		a := Alloc[int32](n, 8)
		if n.ID() == 0 {
			n.Acquire(3)
			a.Set(0, 5)
			n.Release(3)
		}
		n.Barrier()
		// Both sides acquire after the barrier; data already reconciled.
		n.Acquire(3)
		if got := a.Get(0); got != 5 {
			panic(fmt.Sprintf("node %d: a[0] = %d, want 5", n.ID(), got))
		}
		n.Release(3)
		n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPointerArithmetic(t *testing.T) {
	c := mustCluster(t, DefaultConfig(1))
	err := c.Run(func(n *Node) {
		a := Alloc[int32](n, 10)
		// *(a+4) = 1, as in the paper's example.
		a.Add(4).SetDeref(1)
		if a.Get(4) != 1 {
			panic("pointer arithmetic write failed")
		}
		p := a.Add(6)
		p.Set(1, 99) // a[7]
		if a.Get(7) != 99 {
			panic("offset Set failed")
		}
		if p.Len() != 4 {
			panic(fmt.Sprintf("p.Len() = %d, want 4", p.Len()))
		}
		if p.Deref() != a.Get(6) {
			panic("Deref mismatch")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBulkGetSetN(t *testing.T) {
	c := mustCluster(t, DefaultConfig(2))
	err := c.Run(func(n *Node) {
		a := Alloc[int64](n, 1000)
		if n.ID() == 1 {
			vals := make([]int64, 1000)
			for i := range vals {
				vals[i] = int64(i) * 3
			}
			a.SetN(0, vals)
		}
		n.Barrier()
		got := a.GetN(500, 10)
		for k, v := range got {
			if v != int64(500+k)*3 {
				panic(fmt.Sprintf("GetN[%d] = %d", k, v))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMatrixRowsAreSeparateObjects(t *testing.T) {
	c := mustCluster(t, DefaultConfig(2))
	err := c.Run(func(n *Node) {
		m := AllocMatrix[int32](n, 4, 8)
		if m.Row(0).ObjectID() == m.Row(1).ObjectID() {
			panic("rows share an object")
		}
		if n.ID() == 0 {
			m.Set(2, 3, 77)
			m.SetRow(1, []int32{1, 2, 3, 4, 5, 6, 7, 8})
		}
		n.Barrier()
		if m.Get(2, 3) != 77 {
			panic("matrix element lost")
		}
		row := m.GetRow(1)
		if row[7] != 8 {
			panic("matrix row lost")
		}
		if m.Rows() != 4 || m.Cols() != 8 {
			panic("dims")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLOTSxModeMatchesLOTS(t *testing.T) {
	// The LOTS-x variant (large object space disabled) must compute the
	// same results; only the residency machinery differs.
	for _, los := range []bool{true, false} {
		cfg := DefaultConfig(3)
		cfg.LargeObjectSpace = los
		c := mustCluster(t, cfg)
		err := c.Run(func(n *Node) {
			a := Alloc[int32](n, 128)
			if n.ID() == 1 {
				for i := 0; i < 128; i++ {
					a.Set(i, int32(i))
				}
			}
			n.Barrier()
			sum := int32(0)
			for i := 0; i < 128; i++ {
				sum += a.Get(i)
			}
			if sum != 127*128/2 {
				panic(fmt.Sprintf("sum = %d", sum))
			}
		})
		if err != nil {
			t.Fatalf("LargeObjectSpace=%v: %v", los, err)
		}
		snap := c.Total()
		if los && snap.MapIns == 0 {
			t.Error("LOTS mode should count map-ins")
		}
		if !los && snap.MapIns != 0 {
			t.Error("LOTS-x mode must not touch the mapper")
		}
	}
}

func TestSwappingClusterWorkload(t *testing.T) {
	// Object space larger than the DMM area on every node: the defining
	// large-object-space scenario (§4.3) in miniature. 32 objects of
	// 4 KB churn through a 16 KB DMM area while nodes exchange data at
	// barriers.
	cfg := DefaultConfig(2)
	cfg.DMMSize = 16 << 10
	c := mustCluster(t, cfg)
	err := c.Run(func(n *Node) {
		objs := make([]Ptr[int32], 32)
		for i := range objs {
			objs[i] = Alloc[int32](n, 1024) // 4 KB each
		}
		// Node 0 writes even objects, node 1 odd.
		for i, o := range objs {
			if i%2 == n.ID() {
				o.Set(0, int32(i))
				o.Set(1023, int32(i*2))
			}
		}
		n.Barrier()
		for i, o := range objs {
			if o.Get(0) != int32(i) || o.Get(1023) != int32(i*2) {
				panic(fmt.Sprintf("node %d: object %d corrupted: %d,%d",
					n.ID(), i, o.Get(0), o.Get(1023)))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Total().SwapOuts == 0 {
		t.Error("workload should have forced swapping")
	}
}

func TestRunBarrierIsEventOnly(t *testing.T) {
	c := mustCluster(t, DefaultConfig(2))
	err := c.Run(func(n *Node) {
		a := Alloc[int32](n, 4)
		if n.ID() == 0 {
			a.Set(0, 9)
		}
		n.RunBarrier()
		// No memory synchronization: node 1 still sees its own copy
		// (initial zero) — and crucially, no invalidation happened.
		if n.ID() == 1 {
			if got := a.Get(0); got != 0 {
				panic(fmt.Sprintf("run-barrier must not synchronize memory; saw %d", got))
			}
		}
		n.Barrier() // full barrier does synchronize
		if got := a.Get(0); got != 9 {
			panic(fmt.Sprintf("node %d after full barrier: %d", n.ID(), got))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPinBlocksSwap(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.DMMSize = 16 << 10
	c := mustCluster(t, cfg)
	err := c.Run(func(n *Node) {
		a := Alloc[int32](n, 1024)
		b := Alloc[int32](n, 1024)
		cc := Alloc[int32](n, 1024)
		d := Alloc[int32](n, 1024)
		unpinA := a.Pin()
		// Touch the others to churn the arena.
		for _, o := range []Ptr[int32]{b, cc, d} {
			o.Set(0, 1)
		}
		a.Set(5, 55)
		unpinA()
		if a.Get(5) != 55 {
			panic("pinned object corrupted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewCluster(Config{Nodes: 0}); err == nil {
		t.Error("Nodes=0 should fail")
	}
	if _, err := NewCluster(Config{Nodes: MaxNodes + 1}); err == nil {
		t.Error("Nodes>256 should fail")
	}
	cfg := DefaultConfig(1)
	cfg.DMMSize = 16
	if _, err := NewCluster(cfg); err == nil {
		t.Error("tiny DMMSize should fail")
	}
}

func TestErrorsSurfaceThroughRun(t *testing.T) {
	c := mustCluster(t, DefaultConfig(1))
	err := c.Run(func(n *Node) {
		a := Alloc[int32](n, 4)
		a.Get(10) // out of bounds
	})
	if err == nil {
		t.Fatal("out-of-bounds access should fail the run")
	}
	c2 := mustCluster(t, DefaultConfig(1))
	err = c2.Run(func(n *Node) {
		n.Release(3) // never acquired
	})
	if err == nil {
		t.Fatal("release of unheld lock should fail")
	}
}

func TestBarrierWhileHoldingLockFails(t *testing.T) {
	c := mustCluster(t, DefaultConfig(1))
	err := c.Run(func(n *Node) {
		n.Acquire(1)
		n.Barrier()
	})
	if err == nil {
		t.Fatal("barrier inside a critical section should fail")
	}
}

func TestManyLocksDistinctManagers(t *testing.T) {
	// Locks hash to different manager nodes; all must work.
	const nodes = 4
	c := mustCluster(t, DefaultConfig(nodes))
	err := c.Run(func(n *Node) {
		a := Alloc[int32](n, 16)
		for l := 0; l < 8; l++ {
			n.Acquire(l)
			a.Set(l, a.Get(l)+1)
			n.Release(l)
		}
		n.Barrier()
		for l := 0; l < 8; l++ {
			if got := a.Get(l); got != nodes {
				panic(fmt.Sprintf("a[%d] = %d, want %d", l, got, nodes))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimTimeAdvances(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Platform = paperPlatform()
	c := mustCluster(t, cfg)
	err := c.Run(func(n *Node) {
		a := Alloc[int32](n, 1024)
		if n.ID() == 0 {
			for i := 0; i < 1024; i++ {
				a.Set(i, int32(i))
			}
		}
		n.Barrier()
		_ = a.Get(512)
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.SimTime() <= 0 {
		t.Error("simulated time did not advance")
	}
	if c.Total().AccessChecks == 0 {
		t.Error("access checks not counted")
	}
}
