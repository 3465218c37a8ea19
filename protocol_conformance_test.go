package lots

// Cross-transport protocol conformance: the mixed coherence protocol
// (homeless write-update locks + migrating-home write-invalidate
// barriers + per-word on-demand diffs) must produce byte-identical
// final shared-object state on every interconnect — in-memory, UDP
// with sliding-window flow control, TCP with reconnect — both on a
// clean network and under seeded drop/duplication/reordering/delay/
// partition injection. The paper only ever ran on a dedicated cluster;
// this matrix is what lets the reproduction claim the protocol is
// correct under realistic failure, not just on a perfect network.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/transport"
)

// protoChaosSeed fixes the fault schedule of the chaos cells.
const protoChaosSeed = 42

// protoChaos is the fault profile for protocol-level runs: hostile
// enough that every run crosses several partition windows and
// connection kills, short enough that RPC-heavy protocol phases finish
// within test budgets.
func protoChaos() *transport.Chaos {
	c := transport.DefaultChaos(protoChaosSeed)
	c.PartitionEvery = 500 * 1e6 // 500ms
	c.PartitionFor = 80 * 1e6    // 80ms
	c.ConnKillEvery = 200 * 1e6  // 200ms
	return &c
}

// protoCell is one cell of the {mem,udp,tcp} x {clean,chaos} matrix.
type protoCell struct {
	name  string
	kind  TransportKind
	chaos bool
}

func protoCells() []protoCell {
	return []protoCell{
		{"mem", TransportMem, false},
		{"mem+chaos", TransportMem, true},
		{"udp", TransportUDP, false},
		{"udp+chaos", TransportUDP, true},
		{"tcp", TransportTCP, false},
		{"tcp+chaos", TransportTCP, true},
	}
}

func (pc protoCell) config(nodes int) Config {
	cfg := DefaultConfig(nodes)
	cfg.Transport = pc.kind
	if pc.chaos {
		cfg.Chaos = protoChaos()
	}
	return cfg
}

// protoScenario runs a workload on every node and returns that node's
// digest of the final shared-object state (computed after the last
// barrier, so every node must digest identically).
type protoScenario struct {
	name  string
	nodes int
	body  func(n *Node) string
	// cfg, when non-nil, mutates the cell's configuration (e.g. to
	// enable the lease coherence extension for lease scenarios).
	cfg func(*Config)
}

// runScenarioCell executes one (scenario, cell) pair and returns the
// agreed digest, failing (via Errorf — it is called from worker
// goroutines, where FailNow must not run) if the nodes disagree among
// themselves.
func runScenarioCell(t *testing.T, sc protoScenario, cell protoCell) string {
	t.Helper()
	cfg := cell.config(sc.nodes)
	if sc.cfg != nil {
		sc.cfg(&cfg)
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Errorf("%s/%s: %v", sc.name, cell.name, err)
		return ""
	}
	defer c.Close()
	digests := make([]string, sc.nodes)
	var mu sync.Mutex
	err = c.Run(func(n *Node) {
		d := sc.body(n)
		mu.Lock()
		digests[n.ID()] = d
		mu.Unlock()
	})
	if err != nil {
		t.Errorf("%s/%s: %v", sc.name, cell.name, err)
		return ""
	}
	for i := 1; i < sc.nodes; i++ {
		if digests[i] != digests[0] {
			t.Errorf("%s/%s: node %d digest differs from node 0:\n%s\nvs\n%s",
				sc.name, cell.name, i, digests[i], digests[0])
			return ""
		}
	}
	return digests[0]
}

// digestInts renders object contents into a comparable digest.
func digestInts(name string, p Ptr[int32], count int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", name)
	for i := 0; i < count; i++ {
		fmt.Fprintf(&b, " %d", p.Get(i))
	}
	b.WriteByte('\n')
	return b.String()
}

// scenarioLockCounter is the migratory-counter workload: every word of
// a shared array is incremented under a lock by every node for several
// rounds — the producer/consumer pattern the homeless write-update
// protocol optimizes for.
func scenarioLockCounter() protoScenario {
	const nodes, rounds, words = 3, 4, 16
	return protoScenario{name: "lock-counter", nodes: nodes, body: func(n *Node) string {
		arr := Alloc[int32](n, words)
		n.Barrier()
		for r := 0; r < rounds; r++ {
			n.Acquire(2)
			for i := 0; i < words; i++ {
				arr.Set(i, arr.Get(i)+1)
			}
			n.Release(2)
		}
		n.Barrier()
		want := int32(rounds * nodes)
		for i := 0; i < words; i++ {
			if got := arr.Get(i); got != want {
				panic(fmt.Sprintf("node %d: arr[%d] = %d, want %d", n.ID(), i, got, want))
			}
		}
		return digestInts("counter", arr, words)
	}}
}

// scenarioBarrierStripes drives the migrating-home write-invalidate
// barrier protocol: per-epoch striped writes (multi-writer objects take
// the diff path to the home) plus a sole-writer object whose home must
// migrate with no data transfer.
func scenarioBarrierStripes() protoScenario {
	const nodes, epochs, words = 3, 4, 48
	return protoScenario{name: "barrier-stripes", nodes: nodes, body: func(n *Node) string {
		shared := Alloc[int32](n, words)
		sole := Alloc[int32](n, 8)
		n.Barrier()
		stripe := words / nodes
		for e := 0; e < epochs; e++ {
			lo := n.ID() * stripe
			for i := lo; i < lo+stripe; i++ {
				shared.Set(i, shared.Get(i)+int32((e+1)*(n.ID()+1)))
			}
			if n.ID() == 1 { // sole writer: home migrates to node 1
				sole.Set(e%8, int32(1000+e))
			}
			n.Barrier()
		}
		return digestInts("shared", shared, words) + digestInts("sole", sole, 8)
	}}
}

// scenarioScopePending exercises the deferred scope-diff machinery: a
// grant carries updates for an object whose local copy is invalid, so
// the diff must queue and apply over a later fetch from the home.
func scenarioScopePending() protoScenario {
	const nodes = 3
	return protoScenario{name: "scope-pending", nodes: nodes, body: func(n *Node) string {
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
			x.Set(0, 999)
			n.Release(4)
			n.RunBarrier()
		case 0:
			n.RunBarrier() // order acquire after node 2's release
			n.Acquire(4)
			if got := x.Get(0); got != 999 {
				panic(fmt.Sprintf("node 0 sees x[0] = %d, want 999 (pending diff lost)", got))
			}
			n.Release(4)
		case 1:
			n.RunBarrier()
		}
		n.Barrier()
		return digestInts("x", x, 8)
	}}
}

// scenarioMixedRandom replays a fixed seeded plan of lock-guarded adds
// interleaved with barrier phases across several objects, with a DMM
// area small enough to force swapping mid-protocol. The expected final
// state is computed from the plan, so this also cross-checks against a
// sequential reference, not just cell-vs-cell.
func scenarioMixedRandom() protoScenario {
	const (
		nodes  = 3
		objs   = 3
		words  = 24
		rounds = 3
		perCS  = 5
	)
	type op struct {
		obj, idx int
		add      int32
	}
	rng := rand.New(rand.NewSource(protoChaosSeed))
	plans := make([][]op, nodes)
	for nd := 0; nd < nodes; nd++ {
		for r := 0; r < rounds; r++ {
			for k := 0; k < perCS; k++ {
				plans[nd] = append(plans[nd], op{
					obj: rng.Intn(objs), idx: rng.Intn(words), add: int32(1 + rng.Intn(5)),
				})
			}
		}
	}
	want := make([][]int32, objs)
	for o := range want {
		want[o] = make([]int32, words)
	}
	for nd := range plans {
		for _, p := range plans[nd] {
			want[p.obj][p.idx] += p.add
		}
	}
	return protoScenario{name: "mixed-random", nodes: nodes, body: func(n *Node) string {
		ptrs := make([]Ptr[int32], objs)
		for o := range ptrs {
			ptrs[o] = Alloc[int32](n, words)
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
		var b strings.Builder
		for o := range ptrs {
			for i := 0; i < words; i++ {
				if got := ptrs[o].Get(i); got != want[o][i] {
					panic(fmt.Sprintf("node %d: obj %d[%d] = %d, want %d", n.ID(), o, i, got, want[o][i]))
				}
			}
			b.WriteString(digestInts(fmt.Sprintf("obj%d", o), ptrs[o], words))
		}
		return b.String()
	}}
}

// scenarioViewCounter is scenarioLockCounter with the critical-section
// inner loop rewritten onto a pinned RW span view: one write check and
// twin per CS instead of one per element. The protocol artifacts it
// produces (twins, diffs, stamps) must be byte-identical to the
// Set-based writer's, in every transport cell.
func scenarioViewCounter() protoScenario {
	const nodes, rounds, words = 3, 4, 16
	return protoScenario{name: "view-counter", nodes: nodes, body: func(n *Node) string {
		arr := Alloc[int32](n, words)
		n.Barrier()
		for r := 0; r < rounds; r++ {
			n.Acquire(2)
			v := arr.ViewRW(0, words)
			for i := 0; i < words; i++ {
				v.Set(i, v.At(i)+1)
			}
			v.Release()
			n.Release(2)
		}
		n.Barrier()
		want := int32(rounds * nodes)
		v := arr.View(0, words)
		for i := 0; i < words; i++ {
			if got := v.At(i); got != want {
				panic(fmt.Sprintf("node %d: arr[%d] = %d, want %d", n.ID(), i, got, want))
			}
		}
		v.Release()
		return digestInts("counter", arr, words)
	}}
}

// scenarioViewStripes is scenarioBarrierStripes with every writer on RW
// span views (multi-writer epoch diffs + sole-writer home migration,
// all driven by view writes).
func scenarioViewStripes() protoScenario {
	const nodes, epochs, words = 3, 4, 48
	return protoScenario{name: "view-stripes", nodes: nodes, body: func(n *Node) string {
		shared := Alloc[int32](n, words)
		sole := Alloc[int32](n, 8)
		n.Barrier()
		stripe := words / nodes
		for e := 0; e < epochs; e++ {
			lo := n.ID() * stripe
			v := shared.ViewRW(lo, stripe)
			for i := 0; i < stripe; i++ {
				v.Set(i, v.At(i)+int32((e+1)*(n.ID()+1)))
			}
			v.Release()
			if n.ID() == 1 { // sole writer: home migrates to node 1
				sv := sole.ViewRW(e%8, 1)
				sv.Set(0, int32(1000+e))
				sv.Release()
			}
			n.Barrier()
		}
		return digestInts("shared", shared, words) + digestInts("sole", sole, 8)
	}}
}

// enableLeases is the scenario config mutator for the lease cells.
func enableLeases(cfg *Config) { cfg.Leases = true }

// leaseReadMostlyBody is the canonical read-mostly lease workload: a
// publisher re-publishes a small table every epoch, but only one row's
// bytes actually change; every node reads everything every epoch and
// asserts the exact expected values, so a stale leased copy fails
// loudly instead of just diverging the digest.
func leaseReadMostlyBody(epochs, rowsN, words int) func(n *Node) string {
	return func(n *Node) string {
		rows := make([]Ptr[int32], rowsN)
		for r := range rows {
			rows[r] = Alloc[int32](n, words)
		}
		n.Barrier()
		lastChanged := make([]int, rowsN)
		for e := 0; e < epochs; e++ {
			if e > 0 {
				lastChanged[e%rowsN] = e
			}
			if n.ID() == 1 { // publisher: rewrite all, change only row e%rowsN
				for r := 0; r < rowsN; r++ {
					v := rows[r].ViewRW(0, words)
					for i := 0; i < words; i++ {
						v.Set(i, int32(r*10000+lastChanged[r]*100+i))
					}
					v.Release()
				}
			}
			n.Barrier()
			for r := 0; r < rowsN; r++ {
				v := rows[r].View(0, words)
				for i := 0; i < words; i++ {
					if got, want := v.At(i), int32(r*10000+lastChanged[r]*100+i); got != want {
						panic(fmt.Sprintf("node %d epoch %d: row %d[%d] = %d, want %d (stale lease?)",
							n.ID(), e, r, i, got, want))
					}
				}
				v.Release()
			}
			n.Barrier()
		}
		var b strings.Builder
		for r := 0; r < rowsN; r++ {
			b.WriteString(digestInts(fmt.Sprintf("row%d", r), rows[r], words))
		}
		return b.String()
	}
}

// scenarioLeaseReadMostly drives the lease subsystem through the full
// transport matrix: identical re-publications must revalidate (the
// hits are asserted not-vacuous in TestLeaseConformanceNotVacuous)
// and the one changing row must demote, in every cell.
func scenarioLeaseReadMostly() protoScenario {
	return protoScenario{
		name:  "lease-read-mostly",
		nodes: 3,
		body:  leaseReadMostlyBody(6, 4, 12),
		cfg:   enableLeases,
	}
}

// scenarioLeaseLockMix layers the homeless lock protocol over leased
// barrier objects: lock-scope grant diffs must revoke leases so a
// net-zero epoch at the home can never certify a mid-epoch copy.
func scenarioLeaseLockMix() protoScenario {
	const nodes, rounds, words = 3, 4, 16
	return protoScenario{name: "lease-lock-mix", nodes: nodes, cfg: enableLeases,
		body: func(n *Node) string {
			table := Alloc[int32](n, words) // read-mostly, republished
			hot := Alloc[int32](n, words)   // lock-updated by everyone
			n.Barrier()
			for r := 0; r < rounds; r++ {
				if n.ID() == 1 {
					v := table.ViewRW(0, words)
					for i := 0; i < words; i++ {
						v.Set(i, int32(7000+i))
					}
					v.Release()
				}
				n.Acquire(5)
				for i := 0; i < words; i++ {
					hot.Set(i, hot.Get(i)+int32(n.ID()+1))
				}
				n.Release(5)
				n.Barrier()
				want := int32((r + 1) * (1 + 2 + 3))
				for i := 0; i < words; i++ {
					if got := table.Get(i); got != int32(7000+i) {
						panic(fmt.Sprintf("node %d round %d: table[%d] = %d", n.ID(), r, i, got))
					}
					if got := hot.Get(i); got != want {
						panic(fmt.Sprintf("node %d round %d: hot[%d] = %d, want %d", n.ID(), r, i, got, want))
					}
				}
				n.Barrier()
			}
			return digestInts("table", table, words) + digestInts("hot", hot, words)
		}}
}

func protoScenarios() []protoScenario {
	return []protoScenario{
		scenarioLockCounter(),
		scenarioBarrierStripes(),
		scenarioScopePending(),
		scenarioMixedRandom(),
		scenarioViewCounter(),
		scenarioViewStripes(),
		scenarioLeaseReadMostly(),
		scenarioLeaseLockMix(),
		scenarioCoalesceFanout(),
		scenarioLockAndLockFree(),
	}
}

// TestProtocolConformanceMatrix runs every protocol scenario over the
// full {mem, udp, tcp} x {clean, chaos} matrix and asserts the final
// shared-object digests are identical in all six cells.
func TestProtocolConformanceMatrix(t *testing.T) {
	for _, sc := range protoScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			cells := protoCells()
			digests := make([]string, len(cells))
			var wg sync.WaitGroup
			for i, cell := range cells {
				wg.Add(1)
				go func(i int, cell protoCell) {
					defer wg.Done()
					digests[i] = runScenarioCell(t, sc, cell)
				}(i, cell)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for i := 1; i < len(cells); i++ {
				if digests[i] != digests[0] {
					t.Errorf("scenario %s: cell %s final state differs from %s:\n%s\nvs\n%s",
						sc.name, cells[i].name, cells[0].name, digests[i], digests[0])
				}
			}
		})
	}
}

// TestViewAndSetWritersByteIdentical runs each workload twice per
// matrix cell — once with element-wise Set writers, once with RW span
// views — and asserts the final shared state is byte-identical in
// every {mem, udp, tcp} x {clean, chaos} cell. This is the conformance
// face of the View API redesign: views change the access path, never
// the protocol outcome.
func TestViewAndSetWritersByteIdentical(t *testing.T) {
	pairs := []struct {
		name      string
		set, view protoScenario
	}{
		{"counter", scenarioLockCounter(), scenarioViewCounter()},
		{"stripes", scenarioBarrierStripes(), scenarioViewStripes()},
	}
	for _, pair := range pairs {
		pair := pair
		t.Run(pair.name, func(t *testing.T) {
			t.Parallel()
			cells := protoCells()
			setDigests := make([]string, len(cells))
			viewDigests := make([]string, len(cells))
			var wg sync.WaitGroup
			for i, cell := range cells {
				wg.Add(1)
				go func(i int, cell protoCell) {
					defer wg.Done()
					setDigests[i] = runScenarioCell(t, pair.set, cell)
					viewDigests[i] = runScenarioCell(t, pair.view, cell)
				}(i, cell)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for i, cell := range cells {
				if viewDigests[i] != setDigests[i] {
					t.Errorf("%s/%s: view writers diverge from Set writers:\n%s\nvs\n%s",
						pair.name, cell.name, viewDigests[i], setDigests[i])
				}
				if setDigests[i] != setDigests[0] {
					t.Errorf("%s: cell %s differs from %s", pair.name, cell.name, cells[0].name)
				}
			}
		})
	}
}

// TestTCPTLSConformanceCell is the TLS smoke cell of the protocol
// matrix: the mixed coherence protocol (and the lease extension) must
// produce the same final shared state over TLS-encrypted TCP — clean
// and under connection-kill chaos — as over the mem transport.
func TestTCPTLSConformanceCell(t *testing.T) {
	tlsCfg, err := SelfSignedTLS()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []protoScenario{scenarioLockCounter(), scenarioLeaseReadMostly()} {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			memDigest := runScenarioCell(t, sc, protoCell{"mem", TransportMem, false})
			for _, chaos := range []bool{false, true} {
				name := "tcp+tls"
				if chaos {
					name += "+chaos"
				}
				cfg := DefaultConfig(sc.nodes)
				cfg.Transport = TransportTCP
				cfg.TLS = tlsCfg
				if chaos {
					cfg.Chaos = protoChaos()
				}
				if sc.cfg != nil {
					sc.cfg(&cfg)
				}
				c, err := NewCluster(cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				digests := make([]string, sc.nodes)
				var mu sync.Mutex
				err = c.Run(func(n *Node) {
					d := sc.body(n)
					mu.Lock()
					digests[n.ID()] = d
					mu.Unlock()
				})
				c.Close()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i := 0; i < sc.nodes; i++ {
					if digests[i] != memDigest {
						t.Errorf("%s: node %d digest differs from the mem cell:\n%s\nvs\n%s",
							name, i, digests[i], memDigest)
					}
				}
			}
		})
	}
}

// TestLeaseAndInvalidateByteIdentical runs each lease workload twice
// per matrix cell — leases off (the paper's invalidate-at-barrier
// protocol) and leases on — and asserts byte-identical final shared
// state in every {mem, udp, tcp} x {clean, chaos} cell: revalidation
// may only remove round-trips, never change outcomes.
func TestLeaseAndInvalidateByteIdentical(t *testing.T) {
	for _, base := range []protoScenario{scenarioLeaseReadMostly(), scenarioLeaseLockMix()} {
		base := base
		off := base
		off.cfg = nil // plain invalidate protocol
		t.Run(base.name, func(t *testing.T) {
			t.Parallel()
			cells := protoCells()
			onDigests := make([]string, len(cells))
			offDigests := make([]string, len(cells))
			var wg sync.WaitGroup
			for i, cell := range cells {
				wg.Add(1)
				go func(i int, cell protoCell) {
					defer wg.Done()
					onDigests[i] = runScenarioCell(t, base, cell)
					offDigests[i] = runScenarioCell(t, off, cell)
				}(i, cell)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for i, cell := range cells {
				if onDigests[i] != offDigests[i] {
					t.Errorf("%s/%s: lease run diverges from invalidate run:\n%s\nvs\n%s",
						base.name, cell.name, onDigests[i], offDigests[i])
				}
				if onDigests[i] != onDigests[0] {
					t.Errorf("%s: cell %s differs from %s", base.name, cell.name, cells[0].name)
				}
			}
		})
	}
}

// leaseDelayChaos is an adversary aimed specifically at the
// revalidation window: heavy reordering and long random delays hold
// lease queries and replies across the barrier exchange (a reply
// computed for epoch E can arrive when wall-clock is deep into E+1),
// plus enough drop/dup to force the reliability layers to redeliver
// them. A lease implementation that answered before its
// reconciliation settled, or honored a stale verdict, would certify a
// stale copy — and the scenario's per-epoch value assertions (the
// object's bytes change EVERY epoch) would panic the run.
func leaseDelayChaos(seed int64) *transport.Chaos {
	c := transport.DefaultChaos(seed)
	c.DelayMin = 500 * 1e3 // 0.5ms
	c.DelayMax = 8 * 1e6   // 8ms: far beyond a barrier exchange
	c.Reorder = 0.35
	c.PartitionEvery = 300 * 1e6
	c.PartitionFor = 40 * 1e6
	return &c
}

// TestLeaseRevalidationDelayedReply is the adversarial lease cell from
// the issue: chaos delays revalidation traffic across epoch
// boundaries while the shared object's bytes move every single epoch
// (multi-writer diffs to a fixed third-party home, so the home must
// gate verdicts on its reconciliation). Any stale read diverges the
// digest or trips the in-run assertions.
func TestLeaseRevalidationDelayedReply(t *testing.T) {
	const nodes, epochs, words = 4, 6, 24
	sc := protoScenario{name: "lease-delayed-reply", nodes: nodes, cfg: enableLeases,
		body: func(n *Node) string {
			obj := Alloc[int32](n, words) // id 1 -> home = 1 % 4 = node 1
			n.Barrier()
			for e := 0; e < epochs; e++ {
				// Nodes 2 and 3 write disjoint halves every epoch; home
				// (node 1) and node 0 read. Node 0's copy is leased after
				// its first fetch and must demote EVERY epoch.
				half := words / 2
				switch n.ID() {
				case 2:
					v := obj.ViewRW(0, half)
					for i := 0; i < half; i++ {
						v.Set(i, int32(e*1000+i))
					}
					v.Release()
				case 3:
					v := obj.ViewRW(half, half)
					for i := 0; i < half; i++ {
						v.Set(i, int32(e*1000+half+i))
					}
					v.Release()
				}
				n.Barrier()
				for i := 0; i < words; i++ {
					if got, want := obj.Get(i), int32(e*1000+i); got != want {
						panic(fmt.Sprintf("node %d epoch %d: obj[%d] = %d, want %d (stale lease read)",
							n.ID(), e, i, got, want))
					}
				}
				n.Barrier()
			}
			return digestInts("obj", obj, words)
		}}
	cells := []protoCell{
		{"mem+delay", TransportMem, true},
		{"udp+delay", TransportUDP, true},
		{"tcp+delay", TransportTCP, true},
	}
	digests := make([]string, len(cells))
	var wg sync.WaitGroup
	for i, cell := range cells {
		wg.Add(1)
		go func(i int, cell protoCell) {
			defer wg.Done()
			cfg := DefaultConfig(sc.nodes)
			cfg.Transport = cell.kind
			cfg.Chaos = leaseDelayChaos(protoChaosSeed)
			sc.cfg(&cfg)
			c, err := NewCluster(cfg)
			if err != nil {
				t.Errorf("%s: %v", cell.name, err)
				return
			}
			defer c.Close()
			perNode := make([]string, sc.nodes)
			var mu sync.Mutex
			if err := c.Run(func(n *Node) {
				d := sc.body(n)
				mu.Lock()
				perNode[n.ID()] = d
				mu.Unlock()
			}); err != nil {
				t.Errorf("%s: %v", cell.name, err)
				return
			}
			for q := 1; q < sc.nodes; q++ {
				if perNode[q] != perNode[0] {
					t.Errorf("%s: node %d digest differs", cell.name, q)
					return
				}
			}
			digests[i] = perNode[0]
		}(i, cell)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 1; i < len(cells); i++ {
		if digests[i] != digests[0] {
			t.Errorf("cell %s final state differs from %s", cells[i].name, cells[0].name)
		}
	}
}

// TestLeaseConformanceNotVacuous asserts the lease matrix scenarios
// actually exercise the machinery: hits and demotes both fire on the
// read-mostly workload (a regression that silently disabled leasing
// would otherwise sail through the digest checks).
func TestLeaseConformanceNotVacuous(t *testing.T) {
	sc := scenarioLeaseReadMostly()
	cfg := DefaultConfig(sc.nodes)
	sc.cfg(&cfg)
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Run(func(n *Node) { sc.body(n) }); err != nil {
		t.Fatal(err)
	}
	total := c.Total()
	if total.LeaseHits == 0 || total.LeaseDemotes == 0 || total.LeasesGranted == 0 {
		t.Errorf("lease scenario vacuous: granted=%d hits=%d demotes=%d",
			total.LeasesGranted, total.LeaseHits, total.LeaseDemotes)
	}
}

// TestProtocolConformanceChaosNotVacuous runs one chaos cell with an
// observed stats sink and asserts faults actually fired during the
// protocol workload.
func TestProtocolConformanceChaosNotVacuous(t *testing.T) {
	sc := scenarioLockCounter()
	for _, kind := range []TransportKind{TransportMem, TransportUDP, TransportTCP} {
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(sc.nodes)
			cfg.Transport = kind
			cc := protoChaos()
			var st transport.ChaosStats
			cc.Stats = &st
			cfg.Chaos = cc
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Run(func(n *Node) { sc.body(n) }); err != nil {
				t.Fatal(err)
			}
			if st.Total() == 0 {
				t.Errorf("%v chaos cell injected zero faults; matrix cell is vacuous", kind)
			}
			t.Logf("%v faults: drop=%d dup=%d reorder=%d delay=%d partition=%d connkill=%d",
				kind, st.Dropped.Load(), st.Duplicated.Load(), st.Reordered.Load(),
				st.Delayed.Load(), st.Partition.Load(), st.ConnKills.Load())
		})
	}
}

// ---- Frame coalescing conformance ---------------------------------------

// scenarioCoalesceFanout is built to make every barrier round a
// multi-destination, multi-message fan-out: six multi-writer objects
// whose fixed homes spread over all three nodes, every node writing a
// stripe of every object each epoch. Each node then owes two diffs to
// each other node per reconciliation — exactly the burst the coalescer
// packs into one batched datagram per peer.
func scenarioCoalesceFanout() protoScenario {
	const nodes, epochs, objs, words = 3, 4, 6, 18
	return protoScenario{name: "coalesce-fanout", nodes: nodes,
		body: func(n *Node) string {
			ptrs := make([]Ptr[int32], objs)
			for o := range ptrs {
				ptrs[o] = Alloc[int32](n, words)
			}
			n.Barrier()
			stripe := words / nodes
			lo := n.ID() * stripe
			for e := 0; e < epochs; e++ {
				for o := range ptrs {
					for i := lo; i < lo+stripe; i++ {
						ptrs[o].Set(i, ptrs[o].Get(i)+int32((e+1)*(o+2)+n.ID()))
					}
				}
				n.Barrier()
			}
			var b strings.Builder
			for o := range ptrs {
				b.WriteString(digestInts(fmt.Sprintf("obj%d", o), ptrs[o], words))
			}
			return b.String()
		}}
}

// scenarioLockAndLockFree puts both ways a barrier diff can land on a
// home into one barrier, on one object. Every epoch all three nodes
// write their stripe of each object; one of them (a different node per
// object) does so under a lock, so its diff carries that lock's version
// and the other two carry version 0 — a plain copy onto a home that has
// no stamp table, a per-word merge onto one that has. The lock writer
// also overwrites the first word of the next node's stripe, which that
// node writes lock-free in the same epoch: the versioned write must win
// at the home whichever diff arrives first, and when the home is either
// of the two writers. Consecutive objects have consecutive homes and
// every three share a lock writer, so every pairing of home and lock
// writer occurs.
func scenarioLockAndLockFree() protoScenario {
	const nodes, epochs, objs, words = 3, 4, 9, 24
	const stripe = words / nodes
	val := func(e, o, node, i int) int32 { return int32(10000*(e+1) + 1000*o + 100*node + i) }
	lockWriter := func(o int) int { return o / nodes }
	contested := func(o int) int { return (lockWriter(o)*stripe + stripe) % words }
	return protoScenario{name: "lock-and-lock-free", nodes: nodes, body: func(n *Node) string {
		ptrs := make([]Ptr[int32], objs)
		for o := range ptrs {
			ptrs[o] = Alloc[int32](n, words)
		}
		n.Barrier()
		lo := n.ID() * stripe
		for e := 0; e < epochs; e++ {
			for o, p := range ptrs {
				locked := lockWriter(o) == n.ID()
				if locked {
					n.Acquire(5 + o)
				}
				for i := lo; i < lo+stripe; i++ {
					p.Set(i, val(e, o, n.ID(), i))
				}
				if locked {
					p.Set(contested(o), -val(e, o, n.ID(), contested(o)))
					n.Release(5 + o)
				}
			}
			n.Barrier()
		}
		var b strings.Builder
		for o, p := range ptrs {
			for i := 0; i < words; i++ {
				want := val(epochs-1, o, i/stripe, i)
				if i == contested(o) {
					want = -val(epochs-1, o, lockWriter(o), i)
				}
				if got := p.Get(i); got != want {
					panic(fmt.Sprintf("node %d: obj %d word %d = %d, want %d", n.ID(), o, i, got, want))
				}
			}
			b.WriteString(digestInts(fmt.Sprintf("obj%d", o), p, words))
		}
		return b.String()
	}}
}

// TestCoalescingNotVacuous asserts the fan-out scenario actually
// batches: without this, a regression that silently stopped deferring
// (sending every request as its own datagram) would sail through the
// digest checks.
func TestCoalescingNotVacuous(t *testing.T) {
	sc := scenarioCoalesceFanout()
	c := mustCluster(t, DefaultConfig(sc.nodes))
	if err := c.Run(func(n *Node) { sc.body(n) }); err != nil {
		t.Fatal(err)
	}
	total := c.Total()
	if total.BatchesSent == 0 {
		t.Fatal("coalescing scenario sent zero batches; conformance cells are vacuous")
	}
	if total.BatchedMsgs < 2*total.BatchesSent {
		t.Errorf("batches average under 2 messages: %d msgs in %d batches",
			total.BatchedMsgs, total.BatchesSent)
	}
	t.Logf("batches=%d batched msgs=%d (%.1f msgs/batch)", total.BatchesSent, total.BatchedMsgs,
		float64(total.BatchedMsgs)/float64(total.BatchesSent))
}

// TestCoalescedBatchChaosNotVacuous is the adversarial coalescing cell:
// over UDP a batch is one datagram, and datagram-level chaos drops,
// duplicates, reorders, and delays those batched datagrams underneath
// the sliding-window reliability layer. The run must still converge to
// the clean-cell digest, and the stats sink proves both that batches
// were sent and that faults actually hit the wire.
func TestCoalescedBatchChaosNotVacuous(t *testing.T) {
	sc := scenarioCoalesceFanout()
	clean := runScenarioCell(t, sc, protoCell{"mem", TransportMem, false})
	if t.Failed() {
		return
	}
	cfg := DefaultConfig(sc.nodes)
	cfg.Transport = TransportUDP
	cc := protoChaos()
	var st transport.ChaosStats
	cc.Stats = &st
	cfg.Chaos = cc
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	perNode := make([]string, sc.nodes)
	var mu sync.Mutex
	if err := c.Run(func(n *Node) {
		d := sc.body(n)
		mu.Lock()
		perNode[n.ID()] = d
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < sc.nodes; q++ {
		if perNode[q] != clean {
			t.Errorf("node %d digest under batched-datagram chaos differs from clean cell", q)
		}
	}
	total := c.Total()
	if total.BatchesSent == 0 {
		t.Error("chaos cell sent zero batches; the adversary never saw a batched datagram")
	}
	if st.Total() == 0 {
		t.Error("chaos cell injected zero faults; cell is vacuous")
	}
	t.Logf("batches=%d faults: drop=%d dup=%d reorder=%d delay=%d",
		total.BatchesSent, st.Dropped.Load(), st.Duplicated.Load(),
		st.Reordered.Load(), st.Delayed.Load())
}
