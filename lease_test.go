package lots

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/diffing"
	"repro/internal/object"
	"repro/internal/wire"
)

// leaseConfig is DefaultConfig with the lease extension on.
func leaseConfig(n int) Config {
	cfg := DefaultConfig(n)
	cfg.Leases = true
	return cfg
}

// TestLeaseKeepsUnchangedCopy is the core win: a writer that touches
// an object without changing its bytes must not cost the readers a
// re-fetch — the lease revalidates and the copy stays valid.
func TestLeaseKeepsUnchangedCopy(t *testing.T) {
	const words, rounds = 16, 5
	c, err := NewCluster(leaseConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Run(func(n *Node) {
		arr := Alloc[int32](n, words)
		// Round 0: node 1 publishes; everyone reads (and leases).
		if n.ID() == 1 {
			v := arr.ViewRW(0, words)
			for i := 0; i < words; i++ {
				v.Set(i, int32(100+i))
			}
			v.Release()
		}
		n.Barrier()
		for i := 0; i < words; i++ {
			if got := arr.Get(i); got != int32(100+i) {
				panic(fmt.Sprintf("node %d: arr[%d] = %d", n.ID(), i, got))
			}
		}
		n.Barrier()
		// Rounds 1..rounds: node 1 re-publishes identical bytes.
		for r := 0; r < rounds; r++ {
			if n.ID() == 1 {
				v := arr.ViewRW(0, words)
				for i := 0; i < words; i++ {
					v.Set(i, int32(100+i))
				}
				v.Release()
			}
			n.Barrier()
			for i := 0; i < words; i++ {
				if got := arr.Get(i); got != int32(100+i) {
					panic(fmt.Sprintf("node %d round %d: arr[%d] = %d", n.ID(), r, i, got))
				}
			}
			n.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	total := c.Total()
	if total.LeaseHits == 0 {
		t.Errorf("no lease hits on a read-mostly workload: %+v", total)
	}
	// Two readers fetch once each; every identical re-publication must
	// revalidate, not fetch. (The writer itself is/becomes the home.)
	if total.ObjFetches > 2 {
		t.Errorf("ObjFetches = %d, want <= 2 (leases should absorb the re-publications); stats %s",
			total.ObjFetches, total.String())
	}
}

// TestLeaseDemotesOnChange is the other half: when the bytes DO move,
// the revalidation must demote and the readers must see the new data.
func TestLeaseDemotesOnChange(t *testing.T) {
	const words, rounds = 8, 4
	c, err := NewCluster(leaseConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Run(func(n *Node) {
		arr := Alloc[int32](n, words)
		n.Barrier()
		for r := 0; r < rounds; r++ {
			if n.ID() == 1 {
				v := arr.ViewRW(0, words)
				for i := 0; i < words; i++ {
					v.Set(i, int32((r+1)*1000+i))
				}
				v.Release()
			}
			n.Barrier()
			for i := 0; i < words; i++ {
				if got, want := arr.Get(i), int32((r+1)*1000+i); got != want {
					panic(fmt.Sprintf("node %d round %d: arr[%d] = %d, want %d (stale lease?)",
						n.ID(), r, i, got, want))
				}
			}
			n.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	total := c.Total()
	if total.LeaseDemotes == 0 {
		t.Errorf("no lease demotes although every epoch changed the bytes: %s", total.String())
	}
}

// TestLeaseRevokedByLockUpdates drives the subtle divergence scenario:
// a reader's copy receives lock-scope grant diffs mid-epoch (so its
// bytes move past the leased image) while the writer's NET change for
// the epoch is zero (write x+1 then x-1 in two critical sections), so
// the home never bumps the version. Without lease revocation on
// applied grant diffs, the reader would pass revalidation while
// holding bytes that differ from the home's.
func TestLeaseRevokedByLockUpdates(t *testing.T) {
	const words = 4
	c, err := NewCluster(leaseConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Run(func(n *Node) {
		arr := Alloc[int32](n, words)
		if n.ID() == 1 {
			for i := 0; i < words; i++ {
				arr.Set(i, 50)
			}
		}
		n.Barrier()
		// Everyone reads: nodes 0 and 2 fetch from home 1 and lease.
		for i := 0; i < words; i++ {
			if got := arr.Get(i); got != 50 {
				panic(fmt.Sprintf("node %d: arr[%d] = %d, want 50", n.ID(), i, got))
			}
		}
		n.RunBarrier() // reads done before the lock traffic starts
		switch n.ID() {
		case 1:
			// Writer: +1 then -1 under the lock — net zero for the epoch.
			n.Acquire(7)
			for i := 0; i < words; i++ {
				arr.Set(i, arr.Get(i)+1)
			}
			n.Release(7)
			n.RunBarrier() // (a): first CS done
			n.RunBarrier() // (b): node 0 has read inside its CS
			n.Acquire(7)
			for i := 0; i < words; i++ {
				arr.Set(i, arr.Get(i)-1)
			}
			n.Release(7)
		case 0:
			n.RunBarrier() // (a): after writer's first release
			// Acquire between the two CSs: the grant carries x=51.
			n.Acquire(7)
			if got := arr.Get(0); got != 51 {
				panic(fmt.Sprintf("node 0 in CS: arr[0] = %d, want 51", got))
			}
			n.Release(7)
			n.RunBarrier() // (b)
		case 2:
			n.RunBarrier() // (a)
			n.RunBarrier() // (b)
		}
		n.Barrier()
		// After the barrier everyone must agree on the net state (50).
		for i := 0; i < words; i++ {
			if got := arr.Get(i); got != 50 {
				panic(fmt.Sprintf("node %d post-barrier: arr[%d] = %d, want 50 (diverged)",
					n.ID(), i, got))
			}
		}
		n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestVersionBumpsOnlyWhenBytesMove pins the byte rule behind leases at
// a home, for both updates that land there mid-epoch: a stamped diff
// (here a home-based lock flush, the barrier diff's path) and a lock
// grant diff. One whose words all re-assert present bytes or lose the
// newest-wins merge leaves the data version alone — a leased reader's
// copy is still byte-identical — and one that moves a single byte bumps
// it once.
func TestVersionBumpsOnlyWhenBytesMove(t *testing.T) {
	c, err := NewCluster(leaseConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var id object.ID
	err = c.Run(func(n *Node) {
		x := Alloc[int32](n, 4) // id 1: homed at node 1
		if n.ID() == 1 {
			x.Set(0, 5)
		}
		n.Barrier()
		if n.ID() == 1 {
			id = object.ID(x.ObjectID())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	home := c.nodes[1]
	epoch := home.Epoch()
	state := func() (uint32, []byte) {
		home.mu.Lock()
		defer home.mu.Unlock()
		ctl := home.lookup(id)
		return ctl.Ver, append([]byte(nil), home.objData(ctl)...)
	}
	word := func(v byte) []byte { return []byte{v, 0, 0, 0} }
	flush := func(runs ...diffing.StampedRun) {
		var w wire.Buffer
		w.U32(epoch).U8(1).U64(uint64(id))
		diffing.StampedDiff{Runs: runs}.Encode(&w)
		if reply := c.nodes[0].rpc(1, wire.TBarrierDiff, w.Bytes()); reply.Type != wire.TBarrierDiffAck {
			t.Fatalf("flush answered %v", reply.Type)
		}
	}
	grant := func(runs ...diffing.Run) {
		home.mu.Lock()
		defer home.mu.Unlock()
		home.applyScopeDiff(home.lookup(id), 2, 1, diffing.Diff{Runs: runs})
	}
	expect := func(step string, bumps uint32, want []byte) {
		t.Helper()
		ver, data := state()
		if ver != bumps {
			t.Errorf("%s: version %d, want %d", step, ver, bumps)
		}
		if !bytes.Equal(data[:len(want)], want) {
			t.Errorf("%s: bytes % x, want % x", step, data[:len(want)], want)
		}
	}
	v0, _ := state()
	flush(diffing.StampedRun{Off: 0, Data: word(5)})
	expect("flush re-asserting x[0]", v0, word(5))
	flush(diffing.StampedRun{Off: 4, Data: word(7), Ver: 3, Lock: 1})
	expect("flush writing x[1] under lock 1 v3", v0+1, append(word(5), word(7)...))
	flush(diffing.StampedRun{Off: 0, Data: word(5)}, diffing.StampedRun{Off: 4, Data: word(8), Ver: 2, Lock: 1},
		diffing.StampedRun{Off: 4, Data: word(9)})
	expect("flush re-asserting x[0], losing x[1] twice", v0+1, append(word(5), word(7)...))
	flush(diffing.StampedRun{Off: 8, Data: []byte{0, 1, 0, 0}})
	expect("flush moving one byte of x[2]", v0+2, []byte{5, 0, 0, 0, 7, 0, 0, 0, 0, 1, 0, 0})
	grant(diffing.Run{Off: 0, Data: []byte{5, 0, 0, 0, 7, 0, 0, 0}})
	expect("grant re-asserting x[0:2]", v0+2, append(word(5), word(7)...))
	grant(diffing.Run{Off: 4, Data: []byte{7, 0, 0, 0, 0, 1, 0, 1}})
	expect("grant moving one byte of x[2]", v0+3, []byte{5, 0, 0, 0, 7, 0, 0, 0, 0, 1, 0, 1})
}

// TestLeaseTableEviction bounds the home-side state: with a one-slot
// table, granting a second lease evicts the first, whose next
// revalidation must demote (correctly, if wastefully).
func TestLeaseTableEviction(t *testing.T) {
	c, err := NewCluster(leaseConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	home := c.nodes[1]
	home.mu.Lock()
	home.leaseTab = newLeaseTable(1)
	home.mu.Unlock()
	err = c.Run(func(n *Node) {
		a := Alloc[int32](n, 4)
		b := Alloc[int32](n, 4)
		if n.ID() == 1 {
			for i := 0; i < 4; i++ {
				a.Set(i, 10)
				b.Set(i, 20)
			}
		}
		n.Barrier()
		// Node 0 fetches both objects from home 1: the second grant
		// evicts the first from the one-slot table.
		if n.ID() == 0 {
			_ = a.Get(0)
			_ = b.Get(0)
		}
		n.RunBarrier()
		if n.ID() == 1 { // touch both with identical bytes
			for i := 0; i < 4; i++ {
				a.Set(i, 10)
				b.Set(i, 20)
			}
		}
		n.Barrier()
		if n.ID() == 0 {
			if got := a.Get(0); got != 10 {
				panic(fmt.Sprintf("a[0] = %d", got))
			}
			if got := b.Get(0); got != 20 {
				panic(fmt.Sprintf("b[0] = %d", got))
			}
		}
		n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	total := c.Total()
	if total.LeaseDemotes == 0 {
		t.Errorf("one-slot lease table never demoted: %s", total.String())
	}
	if c.Node(1).LeaseCount() > 1 {
		t.Errorf("lease table exceeded its bound: %d entries", c.Node(1).LeaseCount())
	}
}

// TestLeaseTableStaleSlotDoesNotEvictRegrant is the direct regression
// for the drop-then-regrant cycle: a key demoted and re-granted leaves
// a dead FIFO slot behind, and eviction popping that stale slot must
// not delete the key's fresh lease.
func TestLeaseTableStaleSlotDoesNotEvictRegrant(t *testing.T) {
	tab := newLeaseTable(2)
	a := leaseKey{id: 1, node: 1}
	b := leaseKey{id: 2, node: 1}
	c := leaseKey{id: 3, node: 1}
	tab.grant(a)
	tab.grant(b)
	tab.drop(a)  // demote: a's first slot goes dead
	tab.grant(a) // re-grant: a is now the NEWEST lease, b the oldest
	tab.grant(c) // must evict the oldest LIVE lease (b), not pop a's stale slot
	if !tab.has(a) {
		t.Fatal("eviction removed the freshly re-granted lease via its stale FIFO slot")
	}
	if tab.has(b) {
		t.Error("oldest live lease (b) survived eviction")
	}
	if !tab.has(c) {
		t.Error("newly granted lease (c) missing")
	}
	if tab.len() > 2 {
		t.Errorf("table over capacity: %d", tab.len())
	}
}

// TestLeaseTableCompactBounded drives enough churn through a small
// table to trigger compaction and asserts the FIFO stays bounded with
// every live lease intact.
func TestLeaseTableCompactBounded(t *testing.T) {
	tab := newLeaseTable(4)
	for i := 0; i < 100; i++ {
		k := leaseKey{id: object.ID(i%6 + 1), node: 0}
		tab.grant(k)
		if i%3 == 0 {
			tab.drop(k)
		}
	}
	if len(tab.fifo) > 2*tab.cap {
		t.Errorf("fifo grew past its bound: %d slots for cap %d", len(tab.fifo), tab.cap)
	}
	if tab.len() > tab.cap {
		t.Errorf("live entries %d exceed cap %d", tab.len(), tab.cap)
	}
	for k, gen := range tab.m {
		found := false
		for _, s := range tab.fifo {
			if s.key == k && s.gen == gen {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("live lease %+v has no FIFO slot — it could never be evicted", k)
		}
	}
}

// TestLeaseDisabledIdenticalState runs a mixed workload with leases on
// and off and asserts byte-identical final shared state — leases may
// only remove round-trips, never change outcomes.
func TestLeaseDisabledIdenticalState(t *testing.T) {
	run := func(leases bool) (string, int64) {
		cfg := DefaultConfig(3)
		cfg.Leases = leases
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		digests := make([]string, 3)
		var mu sync.Mutex
		err = c.Run(func(n *Node) {
			arr := Alloc[int32](n, 24)
			hot := Alloc[int32](n, 8)
			n.Barrier()
			for r := 0; r < 4; r++ {
				if n.ID() == 1 { // read-mostly: identical re-publication
					for i := 0; i < 24; i++ {
						arr.Set(i, int32(7*i))
					}
				}
				// hot is genuinely written by all nodes under a lock.
				n.Acquire(2)
				for i := 0; i < 8; i++ {
					hot.Set(i, hot.Get(i)+int32(n.ID()+1))
				}
				n.Release(2)
				n.Barrier()
				for i := 0; i < 24; i++ {
					if got := arr.Get(i); got != int32(7*i) {
						panic(fmt.Sprintf("node %d: arr[%d] = %d", n.ID(), i, got))
					}
				}
				n.Barrier()
			}
			d := digestInts("arr", arr, 24) + digestInts("hot", hot, 8)
			mu.Lock()
			digests[n.ID()] = d
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 3; i++ {
			if digests[i] != digests[0] {
				t.Fatalf("leases=%v: node %d digest differs:\n%s\nvs\n%s", leases, i, digests[i], digests[0])
			}
		}
		return digests[0], c.Total().ObjFetches
	}
	offDig, offFetches := run(false)
	onDig, onFetches := run(true)
	if offDig != onDig {
		t.Fatalf("final state diverged:\nleases off: %s\nleases on:  %s", offDig, onDig)
	}
	if onFetches >= offFetches {
		t.Errorf("leases removed no fetches: on=%d off=%d", onFetches, offFetches)
	}
}

// TestLeaseRevokedOnRecover pins the lease/recovery interaction: a
// fleet that goes down holding live leases and gang-restarts from its
// checkpoints must come back with every lease revoked — the home-side
// grant table dies with the process, so a surviving Control.Lease flag
// would let a copy skip revalidation against a home that no longer
// remembers the grant. After the restart, reads must revalidate from
// the restored homes and identical re-publication must re-earn hits.
func TestLeaseRevokedOnRecover(t *testing.T) {
	const words = 16
	root := t.TempDir()
	mkcfg := func(resume bool) Config {
		cfg := leaseConfig(3)
		cfg.Recovery = &RecoveryOpts{Root: root, Buddy: true, Resume: resume}
		return cfg
	}
	publish := func(n *Node, arr Ptr[int32]) {
		if n.ID() == 1 {
			v := arr.ViewRW(0, words)
			for i := 0; i < words; i++ {
				v.Set(i, int32(100+i))
			}
			v.Release()
		}
	}
	readAll := func(n *Node, arr Ptr[int32], tag string) {
		for i := 0; i < words; i++ {
			if got := arr.Get(i); got != int32(100+i) {
				panic(fmt.Sprintf("node %d %s: arr[%d] = %d", n.ID(), tag, i, got))
			}
		}
	}

	// Phase 1: grant leases (round 0) and revalidate them once
	// (round 1), checkpointing at every barrier, then go down. A clean
	// exit leaves exactly the store a crash after the last barrier
	// would.
	c, err := NewCluster(mkcfg(false))
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(func(n *Node) {
		arr := Alloc[int32](n, words)
		for round := 0; round < 2; round++ {
			publish(n, arr)
			n.Barrier()
			readAll(n, arr, "phase1")
			n.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Total().LeaseHits == 0 {
		t.Fatal("phase 1 recorded no lease hits — no live leases to revoke")
	}
	c.Close()

	// Phase 2: resume from the stores. Immediately after Recover no
	// control may carry a lease, reads must still see the published
	// bytes, and a fresh identical republish must hit again.
	c2, err := NewCluster(mkcfg(true))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	err = c2.Run(func(n *Node) {
		arr := Alloc[int32](n, words)
		if !n.Recovering() {
			panic(fmt.Sprintf("node %d: Resume config did not arm recovery", n.ID()))
		}
		if resume := n.Recover(); resume != 4 {
			panic(fmt.Sprintf("node %d: Recover returned %d, want 4", n.ID(), resume))
		}
		n.mu.Lock()
		n.table.ForEach(func(ctl *object.Control) {
			if ctl.Lease {
				panic(fmt.Sprintf("node %d: object %d resumed with a live lease", n.ID(), ctl.ID))
			}
		})
		n.mu.Unlock()
		readAll(n, arr, "post-recover")
		n.Barrier()
		publish(n, arr)
		n.Barrier()
		readAll(n, arr, "revalidated")
		n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if c2.Total().LeaseHits == 0 {
		t.Fatal("resumed fleet re-earned no lease hits")
	}
}
