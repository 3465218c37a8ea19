package lots

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strings"
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
			// diff must overlay 999. A mismatch is recorded, not raised:
			// a panicking rank would leave the others at the barrier.
			if got := x.Get(0); got != 999 {
				t.Errorf("node 0 sees x[0] = %d, want 999 (pending diff lost)", got)
			}
			if got := x.Get(7); got != 107 {
				t.Errorf("node 0 sees x[7] = %d, want 107 (fetch base lost)", got)
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

// TestNestedCriticalSections: a write is credited to the innermost held
// lock, and releasing an outer lock first leaves the inner one on top.
// Rank 0 writes x[0] under B inside A, then x[1] and y[0] under A; then
// it takes A and B again, releases A first, and writes x[2] and y[1]
// under B, one before that release and one after. Ranks 1 and 2 have
// valid copies from the barrier, so acquiring B alone must show B's
// words and none of A's, and acquiring A then adds A's.
func TestNestedCriticalSections(t *testing.T) {
	const nodes, words, lockA, lockB = 3, 8, 1, 2
	c := mustCluster(t, DefaultConfig(nodes))
	err := c.Run(func(n *Node) {
		x, y := Alloc[int32](n, words), Alloc[int32](n, words)
		n.Barrier()
		if n.ID() == 0 {
			n.Acquire(lockA)
			n.Acquire(lockB)
			x.Set(0, 10)
			n.Release(lockB)
			x.Set(1, 11)
			y.Set(0, 12)
			n.Release(lockA)

			n.Acquire(lockA)
			n.Acquire(lockB)
			x.Set(2, 13)
			n.Release(lockA)
			y.Set(1, 14)
			n.Release(lockB)
		}
		n.RunBarrier()
		check := func(after string, wantX, wantY [words]int32) {
			for i := 0; i < words; i++ {
				if got := x.Get(i); got != wantX[i] {
					t.Errorf("node %d after acquiring %s: x[%d] = %d, want %d", n.ID(), after, i, got, wantX[i])
				}
				if got := y.Get(i); got != wantY[i] {
					t.Errorf("node %d after acquiring %s: y[%d] = %d, want %d", n.ID(), after, i, got, wantY[i])
				}
			}
		}
		for r := 1; r < nodes; r++ {
			if n.ID() == r {
				n.Acquire(lockB)
				check("B", [words]int32{10, 0, 13}, [words]int32{0, 14})
				n.Release(lockB)
				n.Acquire(lockA)
				check("B, then A", [words]int32{10, 11, 13}, [words]int32{12, 14})
				n.Release(lockA)
			}
			n.RunBarrier()
		}
		n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecycledSectionTwins: a critical section's twins go back to the
// node's twin pool at Release, and the next section's first write of an
// object of that size takes one, overwritten in full. Rank 0 writes two
// same-size objects in alternating sections of one lock, sparsely; a
// section's values and words repeat those of three sections before, on
// the other object, and every third section writes zeros, so a twin
// still holding that object's bytes, or a fresh twin's zeros, would
// hide writes from the diff. Rank 1 acquires the lock after every
// section and checks every word.
func TestRecycledSectionTwins(t *testing.T) {
	const words, sections, perEpoch, lock = 96, 12, 5, 1
	c := mustCluster(t, DefaultConfig(2))
	err := c.Run(func(n *Node) {
		objs := [2]Ptr[int64]{Alloc[int64](n, words), Alloc[int64](n, words)}
		var want [2][words]int64
		freeTwins := func() int {
			n.mu.Lock()
			defer n.mu.Unlock()
			return len(n.twinFree[words*8])
		}
		n.Barrier()
		for s := 0; s < sections; s++ {
			o, stride := s%2, 2+s%3
			for k := 0; k < words; k += stride {
				want[o][k] = int64(s%3) * (1<<32 | int64(k)) // every third section writes zeros
			}
			if n.ID() == 0 {
				n.Acquire(lock)
				v := objs[o].ViewRW(0, words)
				for k := 0; k < words; k += stride {
					v.Set(k, want[o][k])
				}
				v.Release()
				before := freeTwins()
				n.Release(lock)
				if after := freeTwins(); after != before+1 {
					t.Errorf("section %d: %d free twins after Release, want %d: the section's twin back", s, after, before+1)
				}
			}
			n.RunBarrier()
			if n.ID() == 1 {
				n.Acquire(lock)
				for i, p := range objs {
					for k := 0; k < words; k++ {
						if got := p.Get(k); got != want[i][k] {
							t.Errorf("section %d: object %d word %d = %#x, want %#x", s, i, k, got, want[i][k])
						}
					}
				}
				n.Release(lock)
			}
			n.RunBarrier()
			if s%perEpoch == perEpoch-1 {
				n.Barrier() // retire the epoch twins into the same pool
			}
		}
		n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentFetchesInstallOnce: a node's application and its grant
// service can fetch the same invalid object at once, and the copy they
// fetch must be installed once. Node 0 holds a deferred grant diff for x
// (999 at x[0], from node 2's critical section) and is lock 4's last
// releaser. Its application reads x while node 2 re-acquires lock 4,
// whose grant node 0 serves after fetching x to replay the diff; node
// 1, x's home, parks both fetches behind an open RW view until both are
// in. Whichever reply lands second used to be installed over the first
// one's overlay, leaving node 0 with the home's 100.
func TestConcurrentFetchesInstallOnce(t *testing.T) {
	c := mustCluster(t, DefaultConfig(3))
	err := c.Run(func(n *Node) {
		x := Alloc[int32](n, 8) // id 1: homed at node 1
		if n.ID() == 1 {
			for i := 0; i < 8; i++ {
				x.Set(i, int32(100+i))
			}
		}
		n.Barrier() // nodes 0 and 2 invalid
		if n.ID() == 2 {
			n.Acquire(4)
			x.Set(0, 999)
			n.Release(4)
		}
		n.RunBarrier()
		if n.ID() == 0 { // the grant diff defers: x is invalid here
			n.Acquire(4)
			n.Release(4)
		}
		var v View[int32]
		if n.ID() == 1 {
			v = x.ViewRW(0, 8)
		}
		n.RunBarrier()
		switch n.ID() {
		case 0:
			if got := x.Get(0); got != 999 {
				t.Errorf("node 0 reads x[0] = %d during the overlap, want 999", got)
			}
		case 1:
			for deadline := time.Now().Add(10 * time.Second); goroutinesIn("(*Node).serveFetch") < 2; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Error("the two fetches of x never overlapped: test is vacuous")
					break
				}
			}
			v.Release()
		case 2:
			n.Acquire(4) // forwarded to node 0, whose grant service fetches x
			n.Release(4)
		}
		n.RunBarrier()
		if n.ID() == 0 {
			if got := x.Get(0); got != 999 {
				t.Errorf("node 0 reads x[0] = %d after both fetches, want 999", got)
			}
			if got := x.Get(7); got != 107 {
				t.Errorf("node 0 reads x[7] = %d, want 107", got)
			}
		}
		n.Barrier()
		if got := x.Get(0); got != 999 {
			t.Errorf("node %d reads x[0] = %d after the barrier, want 999", n.ID(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGrantFetchChargesTheGrant: a grant service that must fetch an
// object before it can build the grant charges the whole fetch to the
// grant's own timeline, and nothing else. As in
// TestConcurrentFetchesInstallOnce, node 0 holds a deferred grant diff
// for x and is lock 4's last releaser, so node 2's acquire makes node
// 0's grant service fetch x from its home, node 1, which parks the
// fetch behind an open RW view. While it is parked, node 0's application
// maps in a swapped-out object, and that costs node 0's clock exactly
// what the same access costs outside the window; the map-in used to be
// charged to the parked grant. Once granted, node 2's clock covers five
// message transfers, the fetch's round trip among them; the grant used
// to leave before the fetch it waited on.
func TestGrantFetchChargesTheGrant(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Platform = paperPlatform()
	c := mustCluster(t, cfg)
	measured := make(chan struct{}) // node 0 has read y inside the window
	err := c.Run(func(n *Node) {
		x := Alloc[int32](n, 8) // homed at node 1
		y := Alloc[int32](n, 8)
		switch n.ID() {
		case 0:
			y.Set(0, 7) // sole writer: y's home migrates to node 0
		case 1:
			for i := 0; i < 8; i++ {
				x.Set(i, int32(100+i))
			}
		}
		n.Barrier() // nodes 0 and 2 invalid on x
		if n.ID() == 2 {
			n.Acquire(4)
			x.Set(0, 999)
			n.Release(4)
		}
		n.RunBarrier()
		var v View[int32]
		var outside time.Duration
		switch n.ID() {
		case 0: // the grant diff defers: x is invalid here
			n.Acquire(4)
			n.Release(4)
			outside = swapInCost(t, n, y)
		case 1:
			v = x.ViewRW(0, 8)
		}
		n.RunBarrier()
		switch n.ID() {
		case 0:
			for deadline := time.Now().Add(10 * time.Second); goroutinesIn("(*Node).serveFetch") < 1; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Error("node 0's grant service never fetched x: test is vacuous")
					break
				}
			}
			if inside := swapInCost(t, n, y); inside != outside {
				t.Errorf("node 0's swap-in costs its clock %v while its grant service fetches, %v otherwise", inside, outside)
			}
			close(measured)
		case 1:
			<-measured
			v.Release()
		case 2:
			before := n.SimNow()
			n.Acquire(4) // forwarded to node 0, whose grant service fetches x
			waited := n.SimNow() - before
			n.Release(4)
			// Request, forward, fetch request, fetch reply, grant.
			if least := 5 * cfg.Platform.NetXfer(0); waited < least {
				t.Errorf("node 2's acquire took %v of simulated time, want at least %v", waited, least)
			}
		}
		n.Barrier()
		if got := x.Get(0); got != 999 {
			t.Errorf("node %d reads x[0] = %d, want 999", n.ID(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSocketFetchChargesTheRoundTrip: over TCP, as over mem, an
// application fetch's request leaves at the caller's simulated time, so
// the reply's arrival charges the caller the round trip. Socket sends
// used to leave unstamped, and the reply then arrived before the
// caller's own time.
func TestSocketFetchChargesTheRoundTrip(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Platform = paperPlatform()
	cfg.Transport = TransportTCP
	c := mustCluster(t, cfg)
	err := c.Run(func(n *Node) {
		x := Alloc[int32](n, 8)
		if n.ID() == 1 {
			x.Set(0, 7) // sole writer: x's home migrates to node 1
		}
		n.Barrier() // node 0 invalid on x
		if n.ID() == 0 {
			before := n.SimNow()
			if got := x.Get(0); got != 7 {
				t.Errorf("node 0 reads x[0] = %d, want 7", got)
			}
			if waited, least := n.SimNow()-before, 2*cfg.Platform.NetXfer(0); waited < least {
				t.Errorf("node 0's fetch took %v of simulated time, want at least %v", waited, least)
			}
		}
		n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// swapInCost swaps every object of n out and reports what reading y back
// costs n's clock.
func swapInCost(t *testing.T, n *Node, y Ptr[int32]) time.Duration {
	if err := n.EvictAll(); err != nil {
		t.Error(err)
	}
	before := n.SimNow()
	y.Get(0)
	return n.SimNow() - before
}

// goroutinesIn counts the goroutines with fn on their stack.
func goroutinesIn(fn string) int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), fn+"(")
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
// plans, orders, expectations, migration count and homes the map-based
// planning did, under each barrier protocol. The epochs run back to back
// on one manager, each plan applied to the homes the next one reads, so
// migrated homes and the reused notice slice carry over.
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
		homes := make(map[object.ID]int)
		homeOf := func(id object.ID) int {
			if h, ok := homes[id]; ok {
				return h
			}
			return int(uint64(id) % nodes)
		}
		refHomes := make(map[object.ID]int)
		for e, notices := range epochs {
			bm.notices = append(bm.notices, notices...)
			plans, orders, expects, migrations := bm.plan(mode, homeOf)
			for _, p := range plans {
				homes[p.id] = p.home
			}
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
			if !maps.Equal(homes, refHomes) {
				t.Errorf("mode %v epoch %d: homes %v, want %v", mode, e, homes, refHomes)
			}
			if len(bm.notices) != 0 {
				t.Errorf("mode %v epoch %d: %d notices left for the next epoch", mode, e, len(bm.notices))
			}
		}
	}
}
