package lots

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/object"
)

// counterWorkload drives the migratory counter used to validate every
// protocol variant end to end.
func counterWorkload(t *testing.T, cfg Config, rounds int) *Cluster {
	t.Helper()
	c := mustCluster(t, cfg)
	err := c.Run(func(n *Node) {
		arr := Alloc[int32](n, 16)
		n.Barrier()
		for r := 0; r < rounds; r++ {
			n.Acquire(2)
			for i := 0; i < 16; i++ {
				arr.Set(i, arr.Get(i)+1)
			}
			n.Release(2)
		}
		n.Barrier()
		want := int32(rounds * n.N())
		for i := 0; i < 16; i++ {
			if got := arr.Get(i); got != want {
				panic(fmt.Sprintf("node %d: arr[%d] = %d, want %d", n.ID(), i, got, want))
			}
		}
		n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestProtocolVariantsAllCorrect(t *testing.T) {
	// Every combination of the ablation knobs must compute the same
	// result; only costs differ.
	for _, lock := range []LockMode{LockHomeless, LockHomeBased} {
		for _, barrier := range []BarrierMode{BarrierMigratingHome, BarrierFixedHome, BarrierUpdateBroadcast} {
			for _, diff := range []DiffMode{DiffPerFieldStamps, DiffAccumulate} {
				name := fmt.Sprintf("lock=%d/barrier=%d/diff=%d", lock, barrier, diff)
				t.Run(name, func(t *testing.T) {
					cfg := DefaultConfig(3)
					cfg.Protocol = Protocol{Lock: lock, Barrier: barrier, Diff: diff}
					counterWorkload(t, cfg, 6)
				})
			}
		}
	}
}

func TestHomeBasedLockInvalidates(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Protocol.Lock = LockHomeBased
	c := counterWorkload(t, cfg, 8)
	if c.Total().Invalidations == 0 {
		t.Error("home-based locks must invalidate at grants")
	}
	if c.Total().ObjFetches == 0 {
		t.Error("home-based locks must re-fetch from the home")
	}
}

func TestFixedHomeNeverMigrates(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Protocol.Barrier = BarrierFixedHome
	c := mustCluster(t, cfg)
	err := c.Run(func(n *Node) {
		a := Alloc[int32](n, 32) // object 1: fixed home = node 1
		if n.ID() == 2 {         // sole writer != home
			a.Set(0, 5)
		}
		n.Barrier()
		if a.Get(0) != 5 {
			panic("value lost")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Total().HomeMigrates != 0 {
		t.Error("fixed-home mode migrated a home")
	}
	// A sole writer still had to ship a diff (the cost migrating-home
	// avoids).
	if c.Total().DiffsMade == 0 {
		t.Error("fixed-home sole writer should send a diff")
	}
}

func TestBroadcastBarrierKeepsCopiesValid(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Protocol.Barrier = BarrierUpdateBroadcast
	c := mustCluster(t, cfg)
	err := c.Run(func(n *Node) {
		a := Alloc[int32](n, 32)
		if n.ID() == 0 {
			a.Set(3, 7)
		}
		n.Barrier()
		if a.Get(3) != 7 {
			panic("broadcast update lost")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	total := c.Total()
	if total.Invalidations != 0 {
		t.Error("update-broadcast must not invalidate")
	}
	if total.ObjFetches != 0 {
		t.Error("copies stayed valid; no fetches expected")
	}
	if total.DiffsMade < 2 {
		t.Error("writer should broadcast to every peer")
	}
}

// TestFanoutChargesSenderOccupancy pins the simulated cost of a k-diff
// barrier burst between the two models it replaced: more than the
// single wait a fan-out stamped at one instant would cost (each diff
// occupies the sender for its fixed cost and its bytes), less than the
// k round trips of a request/reply loop (the waits overlap).
func TestFanoutChargesSenderOccupancy(t *testing.T) {
	prof := paperPlatform()
	barrierCost := func(k int) time.Duration {
		cfg := DefaultConfig(2)
		cfg.Platform = prof
		c := mustCluster(t, cfg)
		var cost time.Duration
		err := c.Run(func(n *Node) {
			// IDs alternate homes; keep the k objects homed on node 0.
			var objs []Ptr[int32]
			for len(objs) < k {
				if p := Alloc[int32](n, 16); p.ObjectID()%2 == 0 {
					objs = append(objs, p)
				}
			}
			n.Barrier()
			for _, p := range objs {
				p.Set(n.ID(), int32(n.ID()+1)) // two writers: node 1 owes node 0 a diff
			}
			at := n.SimNow()
			n.Barrier()
			if n.ID() == 1 {
				cost = n.SimNow() - at
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Snapshots()[1].DiffsMade; got != int64(k) {
			t.Fatalf("k=%d: node 1 made %d diffs", k, got)
		}
		return cost
	}
	one, four := barrierCost(1), barrierCost(4)
	// Bounds from empty messages: a real diff occupies the sender for
	// longer than the fixed cost and its round trip takes longer too.
	occupancy := prof.NetXfer(0) - prof.NetLatency
	roundTrip := 2 * prof.NetXfer(0)
	t.Logf("barrier with 1 diff %v, with 4 diffs %v", one, four)
	if extra := four - one; extra < 3*occupancy || extra >= 3*roundTrip {
		t.Errorf("3 more diffs add %v to the barrier (%v -> %v): want at least 3 occupancies (%v), under 3 round trips (%v)",
			extra, one, four, 3*occupancy, 3*roundTrip)
	}
}

// TestBarrierClearsAccumulatedChains: under DiffAccumulate a barrier
// leaves no chain behind, whichever locks an object was written under.
// Truncating each chain to the version of one arbitrarily chosen lock
// of its scope kept the entries of a lock with a higher version.
func TestBarrierClearsAccumulatedChains(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Protocol.Diff = DiffAccumulate
	c := mustCluster(t, cfg)
	err := c.Run(func(n *Node) {
		x := Alloc[int32](n, 8)
		n.Barrier()
		if n.ID() == 0 {
			for r := 0; r < 3; r++ { // lock 1 reaches version 3 ...
				n.Acquire(1)
				x.Set(0, x.Get(0)+1)
				n.Release(1)
			}
			n.Acquire(2) // ... lock 2 only version 1
			x.Set(1, 7)
			n.Release(2)
		}
		n.RunBarrier()
		if n.ID() == 1 { // the grants hand node 1 both histories
			n.Acquire(1)
			n.Release(1)
			n.Acquire(2)
			n.Release(2)
		}
		n.mu.Lock()
		held := len(n.chains)
		n.mu.Unlock()
		if held == 0 {
			panic(fmt.Sprintf("node %d holds no chain before the barrier: test is vacuous", n.ID()))
		}
		n.Barrier()
		n.mu.Lock()
		held = len(n.chains)
		n.mu.Unlock()
		if held != 0 {
			panic(fmt.Sprintf("node %d keeps %d chains across the barrier", n.ID(), held))
		}
		if x.Get(0) != 3 || x.Get(1) != 7 {
			panic(fmt.Sprintf("node %d: x = %d, %d, want 3, 7", n.ID(), x.Get(0), x.Get(1)))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPendingScopeDiffAppliedAfterFetch(t *testing.T) {
	// A grant can carry updates for an object whose local copy is
	// invalid (post-barrier). The update must be deferred and applied
	// on top of the copy fetched from the home — dropping either the
	// fetch or the diff gives a wrong value.
	c := mustCluster(t, DefaultConfig(2))
	err := c.Run(func(n *Node) {
		x := Alloc[int32](n, 8)
		// Epoch 0: node 1 writes x, so after the barrier the home
		// migrates to node 1 and node 0's copy is INVALID.
		if n.ID() == 1 {
			x.Set(0, 10)
			x.Set(1, 11)
		}
		n.Barrier()
		// Node 1 updates x under a lock; node 0 then acquires the same
		// lock WITHOUT having touched x since the barrier: its copy is
		// still invalid, so the grant diff must queue as pending.
		if n.ID() == 1 {
			n.Acquire(4)
			x.Set(0, 20)
			n.Release(4)
		}
		n.RunBarrier() // order acquire after release (event only)
		if n.ID() == 0 {
			n.Acquire(4)
			// First touch since the barrier: fetch from home (which has
			// 10,11 reconciled plus node 1's CS write 20 — note the home
			// IS node 1 here, so the fetch already includes 20; read
			// x[1] to confirm base, x[0] for the scope value).
			if got := x.Get(0); got != 20 {
				panic(fmt.Sprintf("node 0 sees x[0] = %d, want 20", got))
			}
			if got := x.Get(1); got != 11 {
				panic(fmt.Sprintf("node 0 sees x[1] = %d, want 11", got))
			}
			n.Release(4)
		}
		n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPendingDiffToThirdParty(t *testing.T) {
	// Three nodes: node 1 is the sole epoch-0 writer (becomes home).
	// Node 2 then updates under a lock and releases; node 0 acquires
	// the lock while its copy is invalid — the grant diff from node 2
	// must be deferred and applied over the copy fetched from node 1,
	// which does NOT yet include node 2's critical-section write.
	c := mustCluster(t, DefaultConfig(3))
	err := c.Run(func(n *Node) {
		x := Alloc[int32](n, 8)
		if n.ID() == 1 {
			for i := 0; i < 8; i++ {
				x.Set(i, int32(100+i))
			}
		}
		n.Barrier() // home -> node 1; nodes 0,2 invalid
		switch n.ID() {
		case 2:
			n.Acquire(4)
			x.Set(0, 999) // fetched from home 1, then modified in CS
			n.Release(4)
			n.RunBarrier()
		case 0:
			n.RunBarrier() // wait for node 2's release
			n.Acquire(4)
			// x invalid here; grant carries node 2's diff (999 at [0]);
			// fetch from home (node 1) returns 100..107; the pending
			// diff must overlay 999.
			if got := x.Get(0); got != 999 {
				panic(fmt.Sprintf("node 0 sees x[0] = %d, want 999 (pending diff lost)", got))
			}
			if got := x.Get(7); got != 107 {
				panic(fmt.Sprintf("node 0 sees x[7] = %d, want 107 (fetch base lost)", got))
			}
			n.Release(4)
		case 1:
			n.RunBarrier()
		}
		n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRandomizedMixedWorkloadMatchesReference(t *testing.T) {
	// Property test: a random sequence of lock-guarded increments and
	// barrier-phased writes over several objects must match a
	// sequential reference execution.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const (
			nodes  = 3
			objs   = 4
			size   = 32
			rounds = 4
			perCS  = 6
		)
		// Reference model: lock-guarded adds commute, barrier writes are
		// partitioned per node, so expected values are computable.
		type op struct {
			obj, idx int
			add      int32
		}
		plans := make([][]op, nodes)
		for nd := 0; nd < nodes; nd++ {
			for r := 0; r < rounds; r++ {
				for k := 0; k < perCS; k++ {
					plans[nd] = append(plans[nd], op{
						obj: rng.Intn(objs),
						idx: rng.Intn(size),
						add: int32(1 + rng.Intn(5)),
					})
				}
			}
		}
		want := make([][]int32, objs)
		for o := range want {
			want[o] = make([]int32, size)
		}
		for nd := 0; nd < nodes; nd++ {
			for _, p := range plans[nd] {
				want[p.obj][p.idx] += p.add
			}
		}

		cfg := DefaultConfig(nodes)
		cfg.DMMSize = 8 << 10 // force swapping during the protocol churn
		c, err := NewCluster(cfg)
		if err != nil {
			t.Log(err)
			return false
		}
		defer c.Close()
		err = c.Run(func(n *Node) {
			ptrs := make([]Ptr[int32], objs)
			for o := range ptrs {
				ptrs[o] = Alloc[int32](n, size)
			}
			n.Barrier()
			plan := plans[n.ID()]
			for r := 0; r < rounds; r++ {
				n.Acquire(1)
				for _, p := range plan[r*perCS : (r+1)*perCS] {
					ptrs[p.obj].Set(p.idx, ptrs[p.obj].Get(p.idx)+p.add)
				}
				n.Release(1)
				if r%2 == 1 {
					n.Barrier()
				}
			}
			n.Barrier()
			for o := range ptrs {
				for i := 0; i < size; i++ {
					if got := ptrs[o].Get(i); got != want[o][i] {
						panic(fmt.Sprintf("node %d: obj %d[%d] = %d, want %d",
							n.ID(), o, i, got, want[o][i]))
					}
				}
			}
		})
		if err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestStateStringsAndHandles(t *testing.T) {
	c := mustCluster(t, DefaultConfig(1))
	err := c.Run(func(n *Node) {
		a := Alloc[int32](n, 4)
		if a.Nil() {
			panic("allocated pointer reports Nil")
		}
		var zero Ptr[int32]
		if !zero.Nil() {
			panic("zero pointer should be Nil")
		}
		if a.ObjectID() == 0 {
			panic("ObjectID")
		}
		if n.Stats() == nil {
			panic("Stats")
		}
		if n.Epoch() != 0 {
			panic("fresh epoch")
		}
		n.Barrier()
		if n.Epoch() != 1 {
			panic("epoch after barrier")
		}
		if n.LockVersion(3) != 0 {
			panic("unused lock version")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Nodes() != 1 || c.Node(0) == nil {
		t.Error("cluster accessors")
	}
	if c.Config().Nodes != 1 {
		t.Error("Config accessor")
	}
	c.ResetClocks()
	if c.NodeTime(0) != 0 {
		t.Error("ResetClocks")
	}
}

// TestDirtyListIsTheWrittenSet: the barrier's arrival is built from
// n.dirty, so it must hold exactly the objects whose WrittenInEpoch is
// set — each once however often it is written, none that was only read
// — and be empty again after the barrier, epoch after epoch.
func TestDirtyListIsTheWrittenSet(t *testing.T) {
	c := mustCluster(t, DefaultConfig(2))
	err := c.Run(func(n *Node) {
		objs := make([]Ptr[int32], 8)
		for i := range objs {
			objs[i] = Alloc[int32](n, 16)
		}
		n.Barrier()
		for e := 0; e < 3; e++ {
			want := map[object.ID]bool{}
			for i, p := range objs {
				if (i+e)%2 == n.ID() { // a different half each epoch, by Set and by view
					p.Set(1, int32(e))
					v := p.ViewRW(2, 4)
					v.Set(0, int32(i))
					v.Release()
					want[object.ID(p.ObjectID())] = true
				} else if i%3 == 0 {
					_ = p.Get(0)
				}
			}
			n.mu.Lock()
			if len(n.dirty) != len(want) {
				panic(fmt.Sprintf("epoch %d: %d dirty entries, %d objects written", e, len(n.dirty), len(want)))
			}
			for _, ctl := range n.dirty {
				if !want[ctl.ID] || !ctl.WrittenInEpoch {
					panic(fmt.Sprintf("epoch %d: object %d listed dirty (written %v, flag %v)", e, ctl.ID, want[ctl.ID], ctl.WrittenInEpoch))
				}
			}
			n.mu.Unlock()
			n.Barrier()
			n.mu.Lock()
			flagged := 0
			n.table.ForEach(func(ctl *object.Control) {
				if ctl.WrittenInEpoch {
					flagged++
				}
			})
			if len(n.dirty) != 0 || flagged != 0 {
				panic(fmt.Sprintf("epoch %d: after the barrier %d dirty entries, %d flags", e, len(n.dirty), flagged))
			}
			n.mu.Unlock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestControlStateAfterBarrier(t *testing.T) {
	// White-box: after a barrier, the sole writer is the home with a
	// clean copy; other nodes are invalid; twins and epoch flags clear.
	c := mustCluster(t, DefaultConfig(2))
	err := c.Run(func(n *Node) {
		a := Alloc[int32](n, 16)
		if n.ID() == 0 {
			a.Set(0, 1)
		}
		n.Barrier()
		n.mu.Lock()
		ctl := n.lookup(object.ID(a.ObjectID()))
		defer n.mu.Unlock()
		if ctl.Twin != nil || ctl.WrittenInEpoch {
			panic("epoch bookkeeping not cleared")
		}
		if ctl.Home != 0 {
			panic("home should have migrated to writer 0")
		}
		if n.ID() == 0 && ctl.State == object.Invalid {
			panic("home invalidated its own copy")
		}
		if n.ID() == 1 && ctl.State != object.Invalid {
			panic("non-home copy not invalidated")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// planByMaps is the barrier manager's planning as it stood before the
// notices were kept in one sorted slice: a set of writers per object,
// object ids and writers sorted on the way out, a count map per
// receiver. The reference TestBarrierPlanMatchesMapReference compares
// barrierMgr.plan against.
func planByMaps(nodes int, mode BarrierMode, homes map[object.ID]int, notices []writeNotice) (plans []barrierPlan, orders [][]exitOrder, expects [][]expectEntry, migrations int) {
	writersOf := make(map[object.ID]map[int]bool)
	for _, wn := range notices {
		if writersOf[wn.id] == nil {
			writersOf[wn.id] = make(map[int]bool)
		}
		writersOf[wn.id][wn.from] = true
	}
	ids := make([]object.ID, 0, len(writersOf))
	for id := range writersOf {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	orders = make([][]exitOrder, nodes)
	counts := make([]map[object.ID]int, nodes)
	for i := range counts {
		counts[i] = make(map[object.ID]int)
	}
	for _, id := range ids {
		var writers []int
		for w := range writersOf[id] {
			writers = append(writers, w)
		}
		slices.Sort(writers)
		home, ok := homes[id]
		if !ok {
			home = int(uint64(id) % uint64(nodes))
		}
		newHome := home
		switch mode {
		case BarrierMigratingHome:
			if len(writers) == 1 {
				if writers[0] != home {
					newHome = writers[0]
					migrations++
				}
			} else {
				for _, w := range writers {
					if w != home {
						orders[w] = append(orders[w], exitOrder{obj: id, dest: uint16(home)})
						counts[home][id]++
					}
				}
			}
		case BarrierFixedHome:
			for _, w := range writers {
				if w != home {
					orders[w] = append(orders[w], exitOrder{obj: id, dest: uint16(home)})
					counts[home][id]++
				}
			}
		case BarrierUpdateBroadcast:
			for _, w := range writers {
				for v := 0; v < nodes; v++ {
					if v != w {
						orders[w] = append(orders[w], exitOrder{obj: id, dest: uint16(v)})
						counts[v][id]++
					}
				}
			}
		}
		homes[id] = newHome
		plans = append(plans, barrierPlan{id: id, home: newHome})
	}
	expects = make([][]expectEntry, nodes)
	for v, m := range counts {
		for id, cnt := range m {
			expects[v] = append(expects[v], expectEntry{id, cnt})
		}
		slices.SortFunc(expects[v], func(a, b expectEntry) int { return cmp.Compare(a.id, b.id) })
	}
	return plans, orders, expects, migrations
}

// TestBarrierPlanMatchesMapReference: three ranks reporting overlapping
// write sets, in arrival order rather than id order, must yield the
// plans, orders, expectations, migration count and recorded homes the
// map-based planning did, under each barrier protocol. The epochs run
// back to back on one manager so migrated homes and the reused notice
// slice carry over.
func TestBarrierPlanMatchesMapReference(t *testing.T) {
	const nodes = 3
	rng := rand.New(rand.NewSource(7))
	var random []writeNotice
	for id := object.ID(1); id <= 40; id++ {
		for from := 0; from < nodes; from++ {
			if rng.Intn(3) == 0 {
				random = append(random, writeNotice{id, from})
			}
		}
	}
	rng.Shuffle(len(random), func(i, j int) { random[i], random[j] = random[j], random[i] })
	epochs := [][]writeNotice{
		// Rank 2 arrives first with {2,3,4,7}, then rank 0 with {1,2,3,5}:
		// 2 and 3 have two writers, 1, 4, 5 and 7 one. Rank 0's notice of
		// 3 is there twice, as a duplicated arrival would leave it.
		{{2, 2}, {3, 2}, {4, 2}, {7, 2}, {1, 0}, {2, 0}, {3, 0}, {5, 0}, {3, 0}},
		// Same objects from other ranks: sole writers meet migrated homes.
		{{1, 1}, {4, 2}, {5, 1}, {5, 2}, {2, 1}, {7, 0}},
		random,
		{}, // an epoch nobody wrote in
	}
	for _, mode := range []BarrierMode{BarrierMigratingHome, BarrierFixedHome, BarrierUpdateBroadcast} {
		bm := newBarrierMgr(nodes)
		refHomes := make(map[object.ID]int)
		for e, notices := range epochs {
			bm.notices = append(bm.notices, notices...)
			plans, orders, expects, migrations := bm.plan(mode)
			wantPlans, wantOrders, wantExpects, wantMigrations := planByMaps(nodes, mode, refHomes, notices)
			if !slices.Equal(plans, wantPlans) {
				t.Errorf("mode %v epoch %d: plans %v, want %v", mode, e, plans, wantPlans)
			}
			for v := 0; v < nodes; v++ {
				if !slices.Equal(orders[v], wantOrders[v]) {
					t.Errorf("mode %v epoch %d: orders for node %d %v, want %v", mode, e, v, orders[v], wantOrders[v])
				}
				if !slices.Equal(expects[v], wantExpects[v]) {
					t.Errorf("mode %v epoch %d: expects for node %d %v, want %v", mode, e, v, expects[v], wantExpects[v])
				}
			}
			if migrations != wantMigrations {
				t.Errorf("mode %v epoch %d: %d migrations, want %d", mode, e, migrations, wantMigrations)
			}
			if !maps.Equal(bm.homes, refHomes) {
				t.Errorf("mode %v epoch %d: homes %v, want %v", mode, e, bm.homes, refHomes)
			}
			if len(bm.notices) != 0 {
				t.Errorf("mode %v epoch %d: %d notices left for the next epoch", mode, e, len(bm.notices))
			}
		}
	}
}
