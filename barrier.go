package lots

import (
	"cmp"
	"slices"
	"sort"
	"time"

	"repro/internal/diffing"
	"repro/internal/object"
	"repro/internal/stats/phases"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Barrier protocol (§3.4): LOTS uses a migrating-home, write-invalidate
// protocol for propagating object updates at a barrier. The rationale
// from the paper:
//
//  1. If a single process wrote an object before the barrier, no data
//     moves at all — the home simply migrates to the writer, and the
//     migration is piggybacked on the barrier exit message.
//  2. A home prevents an object's updates from being scattered: after
//     the barrier, a requester sends one message to the home.
//  3. After the barrier all updates are at homes, so other processes
//     invalidate their copies and free the memory, simplifying
//     bookkeeping.
//
// The fixed-home and update-broadcast variants exist for the ablation
// benchmarks.

// TBarrierDiff payloads carry {epoch u32, lockScope u8, objID u64,
// stamped diff}. lockScope=1 marks a home-based lock-release flush
// rather than an epoch reconciliation (only the latter counts against
// barrier expectations).

// lv is one (lock, version) pair of the lock knowledge a barrier
// synchronizes.
type lv struct {
	l uint16
	v uint32
}

// writeNotice is one rank's report that it wrote an object this epoch.
type writeNotice struct {
	id   object.ID
	from int
}

// barrierMgr is the global barrier state, hosted on node 0.
type barrierMgr struct {
	n int

	arrivedMsgs []wire.Message
	maxArrive   time.Duration // latest simulated arrival this epoch
	// notices collects the epoch's write notices as they arrive; the
	// last arrival sorts them by (id, from) and plans from the groups.
	// Both it and writers (one group's ranks) are reused across epochs.
	notices  []writeNotice
	writers  []int
	lockVers map[uint16]uint32
	homes    map[object.ID]int // persistent across epochs

	rbMsgs      []wire.Message
	rbMaxArrive time.Duration
}

func newBarrierMgr(n int) *barrierMgr {
	return &barrierMgr{
		n:        n,
		lockVers: make(map[uint16]uint32),
		homes:    make(map[object.ID]int),
	}
}

// Barrier synchronizes all nodes and reconciles shared memory under the
// mixed coherence protocol.
func (n *Node) Barrier() {
	n.ctr.Barriers.Add(1)

	// Phase 1: arrival, carrying write notices and (for locks this
	// node manages) current lock versions.
	n.mu.Lock()
	epoch := n.epoch
	writeIDs := make([]object.ID, len(n.dirty))
	for i, c := range n.dirty {
		writeIDs[i] = c.ID
	}
	slices.Sort(writeIDs)
	var lockVers []lv
	for l, mg := range n.lmgr {
		lockVers = append(lockVers, lv{l, mg.ver})
	}
	sort.Slice(lockVers, func(i, j int) bool { return lockVers[i].l < lockVers[j].l })
	if len(n.held) != 0 {
		n.mu.Unlock()
		n.fatalf("lots: node %d: barrier reached while holding %d lock(s)", n.id, len(n.held))
	}
	n.mu.Unlock()

	var w wire.Buffer
	w.Grow(4 + 1 + 4 + 8*len(writeIDs) + 4 + (2+4)*len(lockVers))
	w.U32(epoch).Bool(false) // not run-only
	w.U32(uint32(len(writeIDs)))
	for _, id := range writeIDs {
		w.U64(uint64(id))
	}
	w.U32(uint32(len(lockVers)))
	for _, e := range lockVers {
		w.U16(e.l).U32(e.v)
	}
	arriveAt := time.Now()
	btc := n.tr.Begin(trace.BarrierEnter, epoch, 0, wire.TraceCtx{})
	reply := n.rpcT(0, wire.TBarrierArrive, w.Bytes(), btc)
	n.tr.End(btc)
	n.ph.Observe(epoch, phases.BarrierWait, time.Since(arriveAt))
	if reply.Type != wire.TBarrierExit {
		n.fatalf("lots: node %d: barrier reply %v", n.id, reply.Type)
	}
	n.tr.Instant(trace.BarrierExit, epoch, 0, reply.Trace)
	n.processBarrierExit(reply.Payload)
	// Barrier exit is the protocol's consistency point: every diff owed
	// to this home has been applied and versions are settled, so this is
	// where the incremental checkpoint cut is taken.
	n.checkpointAfterBarrier(epoch)
}

// RunBarrier is the event-only barrier of §3.6: it synchronizes
// execution without any memory consistency action. It suits programs
// that guard every access to the same object with the same lock across
// the barrier.
func (n *Node) RunBarrier() {
	n.ctr.Barriers.Add(1)
	n.mu.Lock()
	epoch := n.rbEpoch
	n.rbEpoch++
	n.mu.Unlock()
	var w wire.Buffer
	w.U32(epoch).Bool(true)
	arriveAt := time.Now()
	btc := n.tr.Begin(trace.BarrierEnter, epoch, 1, wire.TraceCtx{})
	reply := n.rpcT(0, wire.TBarrierArrive, w.Bytes(), btc)
	n.tr.End(btc)
	n.ph.Observe(epoch, phases.BarrierWait, time.Since(arriveAt))
	if reply.Type != wire.TBarrierExit {
		n.fatalf("lots: node %d: run-barrier reply %v", n.id, reply.Type)
	}
	n.tr.Instant(trace.BarrierExit, epoch, 1, reply.Trace)
}

// exitOrder is one "send your diff of obj to dest" instruction.
type exitOrder struct {
	obj  object.ID
	dest uint16
}

// serveBarrierArrive runs at the barrier manager (node 0).
func (n *Node) serveBarrierArrive(m wire.Message) {
	r := wire.NewReader(m.Payload)
	_ = r.U32() // epoch (informational; arrivals are inherently per-epoch)
	runOnly := r.Bool()
	bm := n.bmgr

	arr := transport.Arrival(n.prof, m)
	if runOnly {
		n.mu.Lock()
		bm.rbMsgs = append(bm.rbMsgs, m)
		if arr > bm.rbMaxArrive {
			bm.rbMaxArrive = arr
		}
		if len(bm.rbMsgs) < bm.n {
			n.mu.Unlock()
			return
		}
		msgs := bm.rbMsgs
		at := bm.rbMaxArrive
		bm.rbMsgs = nil
		bm.rbMaxArrive = 0
		n.mu.Unlock()
		for _, am := range msgs {
			n.reply(am, wire.TBarrierExit, (&wire.Buffer{}).Bool(true).Bytes(), at)
		}
		return
	}

	// The notices decode straight into the manager's reused slice, so
	// under its lock. Counts come off the datagram: Count bounds each by
	// the payload left, so the reads after a good count cannot fail.
	n.mu.Lock()
	from := int(m.From)
	mark := len(bm.notices)
	for i, nw := 0, r.Count(8); i < nw; i++ {
		bm.notices = append(bm.notices, writeNotice{object.ID(r.U64()), from})
	}
	nl := r.Count(2 + 4)
	if r.Err() != nil {
		bm.notices = bm.notices[:mark]
		n.mu.Unlock()
		n.fatalf("lots: bad barrier arrival: %v", r.Err())
	}
	for i := 0; i < nl; i++ {
		if l, v := r.U16(), r.U32(); v > bm.lockVers[l] {
			bm.lockVers[l] = v
		}
	}
	if arr > bm.maxArrive {
		bm.maxArrive = arr
	}
	bm.arrivedMsgs = append(bm.arrivedMsgs, m)
	if len(bm.arrivedMsgs) < bm.n {
		n.mu.Unlock()
		return
	}

	// Everyone has arrived: decide homes, orders, and expectations.
	plans, orders, expects, migrations := bm.plan(n.cfg.Protocol.Barrier)
	n.ctr.HomeMigrates.Add(int64(migrations))

	lockList := make([]lv, 0, len(bm.lockVers))
	for l, v := range bm.lockVers {
		lockList = append(lockList, lv{l, v})
	}
	sort.Slice(lockList, func(i, j int) bool { return lockList[i].l < lockList[j].l })

	msgs := bm.arrivedMsgs
	exitAt := bm.maxArrive
	bm.arrivedMsgs = nil
	bm.maxArrive = 0
	n.mu.Unlock()

	for _, am := range msgs {
		v := int(am.From)
		var w wire.Buffer
		w.Grow(1 + 4 + (8+2)*len(plans) + 4 + (8+2)*len(orders[v]) +
			4 + (8+4)*len(expects[v]) + 4 + (2+4)*len(lockList))
		w.Bool(false) // not run-only
		w.U32(uint32(len(plans)))
		for _, p := range plans {
			w.U64(uint64(p.id)).U16(uint16(p.home))
		}
		w.U32(uint32(len(orders[v])))
		for _, o := range orders[v] {
			w.U64(uint64(o.obj)).U16(o.dest)
		}
		w.U32(uint32(len(expects[v])))
		for _, e := range expects[v] {
			w.U64(uint64(e.id)).U32(uint32(e.cnt))
		}
		w.U32(uint32(len(lockList)))
		for _, e := range lockList {
			w.U16(e.l).U32(e.v)
		}
		n.reply(am, wire.TBarrierExit, w.Bytes(), exitAt)
	}
}

// plan turns the epoch's write notices into the barrier's decisions:
// the new home of every written object (ascending ids), per sender the
// diffs it must ship, per receiver how many diffs to expect of which
// object (ascending ids, like the orders), and how many homes migrated.
// It records the new homes and empties the notices for the next epoch.
// Caller holds the manager node's mu.
func (bm *barrierMgr) plan(mode BarrierMode) (plans []barrierPlan, orders [][]exitOrder, expects [][]expectEntry, migrations int) {
	slices.SortFunc(bm.notices, func(a, b writeNotice) int {
		return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.from, b.from))
	})
	plans = make([]barrierPlan, 0, len(bm.notices)) // one per object, at most one per notice
	orders = make([][]exitOrder, bm.n)
	expects = make([][]expectEntry, bm.n)
	// ship orders wtr to send its diff of id to dest. Ids only grow, so
	// dest's entry for id, if it has one, is its last.
	ship := func(id object.ID, wtr, dest int) {
		orders[wtr] = append(orders[wtr], exitOrder{obj: id, dest: uint16(dest)})
		if ex := expects[dest]; len(ex) > 0 && ex[len(ex)-1].id == id {
			ex[len(ex)-1].cnt++
		} else {
			expects[dest] = append(ex, expectEntry{id, 1})
		}
	}
	for rest := bm.notices; len(rest) > 0; {
		id := rest[0].id
		writers := bm.writers[:0]
		for ; len(rest) > 0 && rest[0].id == id; rest = rest[1:] {
			// A rank names an object once; a repeat would be a duplicate
			// arrival and, sorted, sits next to the original.
			if k := len(writers); k == 0 || writers[k-1] != rest[0].from {
				writers = append(writers, rest[0].from)
			}
		}
		bm.writers = writers
		home, ok := bm.homes[id]
		if !ok {
			home = int(uint64(id) % uint64(bm.n))
		}
		newHome := home
		switch {
		case mode == BarrierMigratingHome && len(writers) == 1:
			// Sole writer: migrate the home; no data transfer.
			if writers[0] != home {
				newHome = writers[0]
				migrations++
			}
		case mode == BarrierUpdateBroadcast:
			for _, wtr := range writers {
				for v := 0; v < bm.n; v++ {
					if v != wtr {
						ship(id, wtr, v)
					}
				}
			}
		default: // fixed home, or a migrating home with several writers
			for _, wtr := range writers {
				if wtr != home {
					ship(id, wtr, home)
				}
			}
		}
		bm.homes[id] = newHome
		plans = append(plans, barrierPlan{id: id, home: newHome})
	}
	bm.notices = bm.notices[:0]
	return plans, orders, expects, migrations
}

// barrierPlan is one home decision from the barrier manager: object id
// is homed at home for the next epoch.
type barrierPlan struct {
	id   object.ID
	home int
}

// expectEntry tells a node to wait for cnt diffs of object id.
type expectEntry struct {
	id  object.ID
	cnt int
}

// processBarrierExit applies the manager's decisions on this node:
// register expected diffs, send ordered diffs, revalidate leased
// copies with their homes (Config.Leases), wait for incoming diffs,
// then invalidate the non-home copies whose leases did not hold and
// reset epoch bookkeeping.
func (n *Node) processBarrierExit(payload []byte) {
	r := wire.NewReader(payload)
	if r.Bool() { // run-only exit reached a memory barrier: impossible
		n.fatalf("lots: node %d: run-only exit for full barrier", n.id)
	}
	np := r.Count(8 + 2)
	plans := make([]barrierPlan, 0, np)
	for i := 0; i < np; i++ {
		plans = append(plans, barrierPlan{object.ID(r.U64()), int(r.U16())})
	}
	no := r.Count(8 + 2)
	orders := make([]exitOrder, 0, no)
	for i := 0; i < no; i++ {
		orders = append(orders, exitOrder{object.ID(r.U64()), r.U16()})
	}
	ne := r.Count(8 + 4)
	expects := make([]expectEntry, 0, ne)
	for i := 0; i < ne; i++ {
		expects = append(expects, expectEntry{object.ID(r.U64()), int(r.U32())})
	}
	nl := r.Count(2 + 4)
	lvs := make([]lv, 0, nl)
	for i := 0; i < nl; i++ {
		lvs = append(lvs, lv{r.U16(), r.U32()})
	}
	if r.Err() != nil {
		n.fatalf("lots: node %d: bad barrier exit: %v", n.id, r.Err())
	}

	// Register expectations, then build diff payloads from our twins.
	n.mu.Lock()
	for _, e := range expects {
		n.pendingDiffs[e.id] += e.cnt
	}
	epoch := n.epoch
	if n.trackVer() {
		// Settle this home's own epoch writes into each surviving
		// object's data version BEFORE revalidation service opens:
		// otherwise a LEASEOK could vouch for a version the home's own
		// writes were about to bump. Incoming diffs bump at apply time
		// and are gated separately via pendingDiffs.
		for _, p := range plans {
			if p.home != n.id {
				continue
			}
			c := n.lookup(p.id)
			n.bumpVerOnSelfWritesLocked(c)
			c.Lease = false // a home holds the master copy, not a lease
		}
	}
	// From here this node may answer epoch-`epoch` lease revalidations
	// (its expectations are registered and its own bumps are settled).
	n.reconEpoch = epoch + 1
	n.cond.Broadcast()
	diffs := make([]call, 0, len(orders))
	for _, o := range orders {
		c := n.lookup(o.obj)
		if c.Twin == nil {
			n.mu.Unlock()
			n.fatalf("lots: node %d: ordered to diff object %d without a twin", n.id, o.obj)
		}
		data := n.objData(c)
		// Stamped diffs: each run carries the lock version under which
		// its words were written, so the home merges concurrent
		// writers' diffs newest-wins instead of arrival-order-wins.
		// It is encoded from the object's bytes straight into the payload.
		var w wire.Buffer
		w.U32(epoch).U8(0).U64(uint64(o.obj))
		bytes := diffing.AppendStamped(&w, data, c.Twin, c.Stamps, epoch)
		n.clock.Advance(n.prof.WordsCost(c.Words()))
		n.ctr.DiffsMade.Add(1)
		n.ctr.DiffBytes.Add(int64(bytes))
		diffs = append(diffs, call{to: int(o.dest), typ: wire.TBarrierDiff, payload: w.Bytes()})
	}
	n.mu.Unlock()

	// Ship the diffs as one burst. Each home applies its diffs
	// independently, so their order does not matter.
	for i := range diffs {
		diffs[i].tc = n.tr.Instant(trace.DiffSend, epoch, uint64(diffs[i].to), wire.TraceCtx{})
	}
	for _, reply := range n.callAll(diffs) {
		if reply.Type != wire.TBarrierDiffAck {
			n.fatalf("lots: node %d: barrier diff rejected: %v", n.id, reply.Type)
		}
	}

	// Revalidate leased copies with their (new) homes now that our own
	// diffs are on their way: each home answers once its side of the
	// reconciliation has settled the queried object, so a LEASEOK means
	// "your bytes are still mine for the next epoch". Must precede the
	// invalidation pass below, which it exempts copies from.
	leaseKept := n.leaseRevalidate(epoch, plans)

	// Wait for every diff we are owed (as a home, or as a broadcast
	// receiver) to be applied.
	n.mu.Lock()
	for !n.pendingDrainedLocked() {
		n.cond.Wait()
	}

	// Apply home decisions and invalidate non-home copies — except
	// those whose lease held: they stay Clean, fetch-free.
	broadcast := n.cfg.Protocol.Barrier == BarrierUpdateBroadcast
	for _, p := range plans {
		c := n.lookup(p.id)
		c.Home = p.home
		if !broadcast && p.home != n.id {
			if !leaseKept[p.id] {
				n.invalidateLocked(c)
			}
		} else if c.State != object.Invalid {
			c.State = object.Clean
		}
		if c.Twin != nil {
			n.twinFree[len(c.Twin)] = append(n.twinFree[len(c.Twin)], c.Twin)
			c.Twin = nil
		}
		c.WrittenInEpoch = false
		c.ScopeLocks = nil
		// Lock knowledge is synchronized below, so per-word stamps of
		// reconciled objects restart clean; this also keeps the next
		// epoch's stamped barrier diffs comparable.
		c.Stamps = nil
		// Deferred lock-scope updates are all pre-barrier (locks cannot
		// span a barrier) and the reconciliation supersedes them; applying
		// them over a post-barrier fetch would resurrect stale values.
		c.PendingDiffs = nil
	}
	// Every object this node wrote was in its arrival, so in the plans,
	// and had its flag cleared above.
	n.dirty = n.dirty[:0]
	// Synchronize lock knowledge: after a barrier every node has seen
	// every update, so grant diffs restart empty (§3.5 bookkeeping).
	for _, e := range lvs {
		if e.v > n.knownVer[e.l] {
			n.knownVer[e.l] = e.v
		}
	}
	// Every chain entry is pre-barrier and every requester's knownVer is
	// now the cluster maximum, so no grant can ask for one again.
	clear(n.chains)
	n.epoch++
	n.cond.Broadcast()
	n.mu.Unlock()
}

// pendingDrainedLocked reports whether all expected barrier diffs have
// been applied. Caller holds n.mu.
func (n *Node) pendingDrainedLocked() bool {
	for id, cnt := range n.pendingDiffs {
		if cnt == 0 {
			delete(n.pendingDiffs, id)
			continue
		}
		if cnt > 0 {
			return false
		}
	}
	return true
}

// serveBarrierDiff applies an incoming diff: either an epoch
// reconciliation to this home (counted against expectations) or a
// home-based lock-scope flush.
func (n *Node) serveBarrierDiff(m wire.Message) {
	r := wire.NewReader(m.Payload)
	epoch := r.U32()
	applyAt := time.Now()
	defer func() { n.ph.Observe(epoch, phases.DiffApply, time.Since(applyAt)) }()
	dtc := n.tr.Begin(trace.DiffApply, epoch, uint64(m.From), m.Trace)
	defer n.tr.End(dtc)
	lockScope := r.U8() == 1
	id := object.ID(r.U64())
	if r.Err() != nil {
		n.fatalf("lots: node %d: bad barrier diff: %v", n.id, r.Err())
	}
	lc := n.svcClock(m)
	n.mu.Lock()
	c := n.lookup(id)
	// Epoch reconciliations arrive while every node is inside the
	// barrier (no views open, per the release-before-barrier rule), but
	// a home-based lock-scope flush can land mid-epoch: never write
	// over a span that is mid-mutation under an open RW view, and never
	// write under a lock-free reader's open read view either.
	for c.RWViews > 0 || c.ROViews > 0 {
		n.cond.Wait()
	}
	restore := n.useClock(lc)
	data := n.objData(c)
	// Lease versioning: bump only when the application actually moves
	// bytes. An incoming diff whose words all lose the newest-wins
	// merge (or re-assert values already present) leaves the copy
	// byte-identical, and leased readers must be allowed to keep it.
	// The shadow needs the runs up front, so this path alone decodes
	// them, from a second cursor over the payload; a diff that does not
	// decode fails in the apply below.
	var d diffing.StampedDiff
	var shadow [][]byte
	if n.trackVer() {
		peek := *r
		d, _ = diffing.DecodeStampedDiff(&peek)
		shadow = stampedRunShadow(data, d)
	}
	// The runs go from the payload to the object and nowhere in between.
	diffBytes, err := diffing.ApplyStampedEncoded(data, c, r, epoch)
	if err != nil {
		restore()
		n.mu.Unlock()
		n.fatalf("lots: node %d: applying barrier diff to %d: %v", n.id, id, err)
	}
	if shadow != nil && stampedRunsChanged(data, d, shadow) {
		c.Ver++
	}
	if n.mapper != nil {
		n.mapper.MarkDirty(c)
	}
	lc.Advance(n.prof.WordsCost(diffBytes / object.WordSize))
	restore()
	if int64(lc.Now()) > c.ReconcileNS {
		c.ReconcileNS = int64(lc.Now())
	}
	// The application cannot leave its barrier before this diff has
	// been applied, so its timeline merges forward here.
	n.clock.MergeTo(lc.Now())
	if !lockScope {
		n.pendingDiffs[id]--
		n.cond.Broadcast()
	}
	n.mu.Unlock()
	n.reply(m, wire.TBarrierDiffAck, nil, lc.Now())
}

// Epoch returns the node's barrier epoch (testing/diagnostics).
func (n *Node) Epoch() uint32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}
