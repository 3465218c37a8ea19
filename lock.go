package lots

import (
	"sort"
	"time"

	"repro/internal/diffing"
	"repro/internal/object"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Lock protocol (§3.4): LOTS uses a homeless, write-update protocol for
// propagating object updates during lock synchronization. Each lock has
// a statically assigned manager node (lock % N) that orders grants; the
// update data flows point-to-point from the last releaser to the next
// acquirer, attached to the grant — exactly the migratory /
// producer-consumer pattern the paper optimizes for.
//
// Under Scope Consistency, acquiring lock L makes visible all updates
// performed inside critical sections previously guarded by L. The
// releaser computes the data to send on demand from its current object
// contents plus per-word stamps (§3.5): every word stamped (L, v) with
// v newer than the acquirer's applied version is included, and nothing
// else — no accumulated diff chains.

// lockMgr is the per-lock manager state (lives on node lock % N).
type lockMgr struct {
	held         bool
	holder       int
	lastReleaser int
	ver          uint32
	scope        map[object.ID]bool
	lastWrite    map[object.ID]uint32 // home-based ablation: obj -> last write version
	queue        []lockWaiter
}

type lockWaiter struct {
	from   uint16
	reqID  uint64
	known  uint32
	arrive time.Duration // simulated arrival of the request at the manager
}

func (n *Node) managerOf(l uint16) int { return int(l) % n.cfg.Nodes }

func (n *Node) lockMgrState(l uint16) *lockMgr {
	mg := n.lmgr[l]
	if mg == nil {
		mg = &lockMgr{lastReleaser: -1, scope: make(map[object.ID]bool),
			lastWrite: make(map[object.ID]uint32)}
		n.lmgr[l] = mg
	}
	return mg
}

// Acquire enters the critical section guarded by lock l, applying all
// updates previously made under l (Scope Consistency).
func (n *Node) Acquire(l int) {
	if l < 0 || l >= MaxLocks {
		n.fatalf("lots: node %d: lock %d out of range [0,%d)", n.id, l, MaxLocks)
	}
	lk := uint16(l)
	n.mu.Lock()
	if _, dup := n.held[lk]; dup {
		n.mu.Unlock()
		n.fatalf("lots: node %d: lock %d acquired twice", n.id, l)
	}
	known := n.knownVer[lk]
	epoch := n.epoch
	n.mu.Unlock()

	n.ctr.LockAcquires.Add(1)
	var w wire.Buffer
	w.U8(0).U16(lk).U32(known)
	ltc := n.tr.Begin(trace.LockAcquire, epoch, uint64(l), wire.TraceCtx{})
	reply := n.rpcT(n.managerOf(lk), wire.TLockReq, w.Bytes(), ltc, n.clock)
	n.tr.End(ltc)
	if reply.Type != wire.TLockGrant {
		n.fatalf("lots: node %d: lock %d: unexpected reply %v", n.id, l, reply.Type)
	}
	n.applyGrant(lk, reply.Payload)
}

// Release leaves the critical section: changed words are stamped
// (per-field timestamps) or appended to diff chains (ablation mode),
// and the manager is told the new lock version and scope.
func (n *Node) Release(l int) {
	lk := uint16(l)
	n.mu.Lock()
	cs := n.held[lk]
	if cs == nil {
		n.mu.Unlock()
		n.fatalf("lots: node %d: release of lock %d not held", n.id, l)
	}
	newVer := cs.grantVer
	if len(cs.written) > 0 {
		newVer++
	}
	written := make([]object.ID, 0, len(cs.written))
	for id := range cs.written {
		written = append(written, id)
	}
	sort.Slice(written, func(i, j int) bool { return written[i] < written[j] })
	var flushes []call
	for _, id := range written {
		c := n.lookup(id)
		data := n.objData(c, n.clock)
		twin := cs.csTwins[id]
		d := diffing.Compute(data, twin)
		n.clock.Advance(n.prof.WordsCost(c.Words()))
		if d.Empty() {
			continue
		}
		n.ctr.DiffsMade.Add(1)
		n.ctr.DiffBytes.Add(int64(d.Bytes()))
		stamp := object.WordStamp{Ver: newVer, Lock: lk, Epoch: n.epoch}
		diffing.StampChanged(c.EnsureStamps(), data, twin, stamp)
		if n.cfg.Protocol.Diff == DiffAccumulate {
			// The accumulating ablation additionally stores the diff
			// history; grants then carry chains instead of on-demand
			// per-field diffs (stamps above keep merge rules intact).
			ch := n.chains[id]
			if ch == nil {
				ch = &diffing.Chain{}
				n.chains[id] = ch
			}
			ch.Append(newVer, d)
		}
		if n.cfg.Protocol.Lock == LockHomeBased && c.Home != n.id {
			// Home-based ablation: flush the diff to the object's home
			// eagerly at release, like JIAJIA.
			var w wire.Buffer
			w.U32(n.epoch).U8(1).U64(uint64(id))
			diffing.AppendStamped(&w, data, twin, c.Stamps, n.epoch)
			flushes = append(flushes, call{to: c.Home, typ: wire.TBarrierDiff, payload: w.Bytes()})
		}
	}
	n.knownVer[lk] = newVer
	delete(n.held, lk)
	for i, h := range n.csStack {
		if h == lk {
			n.csStack = append(n.csStack[:i], n.csStack[i+1:]...)
			break
		}
	}
	scopeIDs := n.scopeList(lk)
	epoch := n.epoch
	n.mu.Unlock()

	for i := range flushes {
		flushes[i].tc = n.tr.Instant(trace.DiffSend, epoch, uint64(flushes[i].to), wire.TraceCtx{})
	}
	for _, reply := range n.callAll(flushes) {
		if reply.Type != wire.TBarrierDiffAck {
			n.fatalf("lots: node %d: home flush rejected: %v", n.id, reply.Type)
		}
	}

	var w wire.Buffer
	w.U16(lk).U32(newVer)
	w.U32(uint32(len(written)))
	for _, id := range written {
		w.U64(uint64(id))
	}
	w.U32(uint32(len(scopeIDs)))
	for _, id := range scopeIDs {
		w.U64(uint64(id))
	}
	n.tr.Instant(trace.LockRelease, epoch, uint64(l), wire.TraceCtx{})
	n.send(n.managerOf(lk), wire.TLockFree, 0, w.Bytes(), 0)
}

// scopeList returns lock l's known scope set, sorted. Caller holds mu.
func (n *Node) scopeList(l uint16) []object.ID {
	s := n.scope[l]
	out := make([]object.ID, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// serveLockReq handles both roles: kind 0 is a request arriving at the
// manager; kind 1 is a request the manager forwarded to the last
// releaser, which must build and send the grant directly.
func (n *Node) serveLockReq(m wire.Message) {
	r := wire.NewReader(m.Payload)
	kind := r.U8()
	lk := r.U16()
	known := r.U32()
	at := n.arrival(&m)
	if kind == 1 {
		orig := r.U16()
		if r.Err() != nil {
			n.fatalf("lots: bad forwarded lock request: %v", r.Err())
		}
		n.sendGrant(int(orig), m.ReqID, lk, known, at)
		return
	}
	if r.Err() != nil {
		n.fatalf("lots: bad lock request: %v", r.Err())
	}
	wtr := lockWaiter{from: m.From, reqID: m.ReqID, known: known, arrive: at}
	n.mu.Lock()
	mg := n.lockMgrState(lk)
	if mg.held {
		mg.queue = append(mg.queue, wtr)
		n.mu.Unlock()
		return
	}
	mg.held = true
	mg.holder = int(m.From)
	n.grantFromManagerLocked(mg, lk, wtr, at)
}

// grantFromManagerLocked routes one grant for lk to wtr. The manager does
// no simulated work of its own, so the grant leaves at the later of at,
// when the lock became available, and the waiter's request arrival.
// Caller holds n.mu; it is released before any message is sent.
func (n *Node) grantFromManagerLocked(mg *lockMgr, lk uint16, wtr lockWaiter, at time.Duration) {
	at = max(at, wtr.arrive)
	switch {
	case n.cfg.Protocol.Lock == LockHomeBased:
		// Home-based: the manager grants directly with write notices;
		// data is already at the homes.
		payload := n.encodeHomeBasedGrant(mg, lk)
		n.mu.Unlock()
		n.send(int(wtr.from), wire.TLockGrant, transport.ReplyID(wtr.reqID), payload, at)
	case mg.lastReleaser < 0 || mg.lastReleaser == int(wtr.from):
		// First acquire ever, or re-acquire by the last releaser: no
		// updates to transfer; the manager grants directly.
		payload := encodeEmptyGrant(lk, mg.ver, mg.scope)
		n.mu.Unlock()
		n.send(int(wtr.from), wire.TLockGrant, transport.ReplyID(wtr.reqID), payload, at)
	default:
		// Forward to the last releaser, which holds the freshest data
		// and serves the grant point-to-point (homeless protocol).
		rel := mg.lastReleaser
		n.mu.Unlock()
		var w wire.Buffer
		w.U8(1).U16(lk).U32(wtr.known).U16(wtr.from)
		n.send(rel, wire.TLockReq, wtr.reqID, w.Bytes(), at)
	}
}

// encodeEmptyGrant builds a grant with the scope list but no diffs.
func encodeEmptyGrant(lk uint16, ver uint32, scope map[object.ID]bool) []byte {
	ids := make([]object.ID, 0, len(scope))
	for id := range scope {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var w wire.Buffer
	w.U16(lk).U32(ver).U32(uint32(len(ids)))
	for _, id := range ids {
		w.U64(uint64(id)).U32(0) // zero diffs
	}
	return w.Bytes()
}

// encodeHomeBasedGrant builds a grant carrying write notices
// (objID, lastWriteVer) instead of data. Caller holds n.mu.
func (n *Node) encodeHomeBasedGrant(mg *lockMgr, lk uint16) []byte {
	ids := make([]object.ID, 0, len(mg.lastWrite))
	for id := range mg.lastWrite {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var w wire.Buffer
	w.U16(lk).U32(mg.ver).U32(uint32(len(ids)))
	for _, id := range ids {
		w.U64(uint64(id)).U32(mg.lastWrite[id])
	}
	return w.Bytes()
}

// sendGrant builds the homeless write-update grant at the last
// releaser: for every object in l's scope, the words written under l
// since the requester's version, computed on demand (§3.5). Everything
// the grant costs, a fetch it waits for included, is charged to its
// service timeline lc, a local started at at, the request's arrival.
func (n *Node) sendGrant(to int, reqID uint64, lk uint16, known uint32, at time.Duration) {
	var lc stats.SimClock
	lc.MergeTo(at)
	n.mu.Lock()
	ver := n.knownVer[lk]
	ids := n.scopeList(lk)
	var w wire.Buffer
	w.U16(lk).U32(ver).U32(uint32(len(ids)))
	for _, id := range ids {
		c := n.lookup(id)
		// Like serveFetch, the grant must not read an object whose span is
		// mid-mutation under an open RW view (the writes hold no lock).
		// Nor may it serve from stamps alone while this node holds scope
		// updates deferred on its invalid copy (they came with a grant
		// before it touched the object): the fetch that validates the copy
		// replays and drops them. The fetch drops n.mu, so loop until both
		// conditions hold together.
		for c.RWViews > 0 || len(n.deferred[id]) > 0 {
			if c.RWViews > 0 {
				n.cond.Wait()
			} else {
				n.fetchObject(c, &lc)
			}
		}
		w.U64(uint64(id))
		switch n.cfg.Protocol.Diff {
		case DiffAccumulate:
			ch := n.chains[id]
			if ch == nil {
				w.U32(0)
				continue
			}
			entries, bytes := ch.SinceEntries(known)
			w.U32(uint32(len(entries)))
			for _, e := range entries {
				w.U32(e.Ver)
				e.Diff.Encode(&w)
			}
			if bytes > 0 {
				n.ctr.DiffBytes.Add(int64(bytes))
			}
		default:
			d := n.onDemandDiffLocked(c, lk, known, &lc)
			if d.Empty() {
				w.U32(0)
			} else {
				w.U32(1)
				d.Encode(&w)
				n.ctr.DiffBytes.Add(int64(d.Bytes()))
			}
		}
	}
	n.mu.Unlock()
	n.send(to, wire.TLockGrant, transport.ReplyID(reqID), w.Bytes(), lc.Now())
}

// onDemandDiffLocked computes the grant diff for one object from the
// current data plus per-word stamps, on timeline clk. It only maps the
// object in when at least one word qualifies, so cold scope objects stay
// on disk.
func (n *Node) onDemandDiffLocked(c *object.Control, lk uint16, known uint32, clk *stats.SimClock) diffing.Diff {
	if c.Stamps == nil {
		return diffing.Diff{}
	}
	epoch := n.epoch
	include := func(s object.WordStamp) bool {
		return s.Lock == lk && s.Ver > known && s.Epoch == epoch
	}
	any := false
	for _, s := range c.Stamps {
		if include(s) {
			any = true
			break
		}
	}
	if !any {
		return diffing.Diff{}
	}
	data := n.objData(c, clk)
	clk.Advance(n.prof.WordsCost(c.Words()))
	d := diffing.FilterByStamp(data, c.Stamps, include)
	if !d.Empty() {
		n.ctr.DiffsMade.Add(1)
	}
	return d
}

// applyGrant installs the critical section at the acquirer, applying
// (or deferring) the scope updates carried by the grant.
func (n *Node) applyGrant(lk uint16, payload []byte) {
	r := wire.NewReader(payload)
	glk := r.U16()
	ver := r.U32()
	// Counts come off the wire: Count bounds each by the payload left.
	count := r.Count(8 + 4)
	if r.Err() != nil || glk != lk {
		n.fatalf("lots: node %d: bad grant for lock %d: %v", n.id, lk, r.Err())
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	// The manager's view can lag our own release (its TLockFree may
	// still be in flight when we re-acquire), so a grant's version can
	// never be below what this node already knows: release versions
	// must be monotone or a newer write would stamp lower than an older
	// one and lose the barrier merge.
	if n.knownVer[lk] > ver {
		ver = n.knownVer[lk]
	}
	homeBased := n.cfg.Protocol.Lock == LockHomeBased
	accumulate := n.cfg.Protocol.Diff == DiffAccumulate
	for i := 0; i < count; i++ {
		id := object.ID(r.U64())
		var lastWrite uint32
		nd := 0
		if homeBased {
			lastWrite = r.U32()
		} else {
			nd = r.Count(4)
		}
		if r.Err() != nil {
			break // a short read yields ID 0: a bad grant, not an undeclared object
		}
		c := n.lookup(id)
		n.addScope(lk, id)
		if homeBased {
			n.homeBasedInvalidate(c, lk, lastWrite)
			continue
		}
		for j := 0; j < nd; j++ {
			dv := ver
			if accumulate {
				dv = r.U32()
			}
			d, err := diffing.DecodeDiff(r)
			if err != nil {
				break // err is r.Err(), which ends the outer loop too
			}
			if n.applyScopeDiff(c, lk, dv, d, n.clock) {
				n.clock.Advance(n.prof.WordsCost(d.Bytes() / object.WordSize))
			}
			if accumulate {
				// Accumulation compounds: the acquirer must keep the
				// received history to serve future grants (Figure 7a).
				ch := n.chains[id]
				if ch == nil {
					ch = &diffing.Chain{}
					n.chains[id] = ch
				}
				ch.Append(dv, d)
			}
		}
	}
	if r.Err() != nil {
		n.fatalf("lots: node %d: bad grant for lock %d: %v", n.id, lk, r.Err())
	}
	if ver > n.knownVer[lk] {
		n.knownVer[lk] = ver
	}
	cs := &csState{
		lock:     lk,
		grantVer: ver,
		written:  make(map[object.ID]bool),
		csTwins:  make(map[object.ID][]byte),
	}
	n.held[lk] = cs
	n.csStack = append(n.csStack, lk)
}

// homeBasedInvalidate drops the local copy of an object whose home has
// newer data (the write-invalidate half of the ablation protocol).
// Caller holds n.mu.
func (n *Node) homeBasedInvalidate(c *object.Control, lk uint16, lastWrite uint32) {
	if c.Home == n.id {
		return // the home received the diffs at release time
	}
	seen := n.knownVer[lk]
	if lastWrite <= seen || c.State == object.Invalid {
		return
	}
	n.invalidateLocked(c)
}

// invalidateLocked discards the local copy. Caller holds n.mu.
func (n *Node) invalidateLocked(c *object.Control) {
	if c.State == object.Invalid {
		return
	}
	c.State = object.Invalid
	n.ctr.Invalidations.Add(1)
	if n.mapper != nil {
		if c.Mapped {
			n.mapper.Drop(c)
		} else if n.store != nil {
			n.store.Delete(uint64(c.ID)) //nolint:errcheck // advisory spill cleanup
			c.DiskValid = false
		}
	} else {
		c.Heap = nil
	}
}

// serveLockFree processes a release notice at the manager: record the
// new version, scope, and last releaser, then hand the lock to the next
// queued waiter (if any).
func (n *Node) serveLockFree(m wire.Message) {
	r := wire.NewReader(m.Payload)
	lk := r.U16()
	ver := r.U32()
	nw := r.Count(8)
	written := make([]object.ID, 0, nw)
	for i := 0; i < nw; i++ {
		written = append(written, object.ID(r.U64()))
	}
	ns := r.Count(8)
	scopeIDs := make([]object.ID, 0, ns)
	for i := 0; i < ns; i++ {
		scopeIDs = append(scopeIDs, object.ID(r.U64()))
	}
	if r.Err() != nil {
		n.fatalf("lots: bad lock-free payload: %v", r.Err())
	}
	n.mu.Lock()
	mg := n.lockMgrState(lk)
	if !mg.held || mg.holder != int(m.From) {
		n.mu.Unlock()
		n.fatalf("lots: node %d: release of lock %d from non-holder %d", n.id, lk, m.From)
	}
	mg.held = false
	mg.lastReleaser = int(m.From)
	if ver > mg.ver {
		mg.ver = ver
	}
	for _, id := range scopeIDs {
		mg.scope[id] = true
	}
	for _, id := range written {
		mg.lastWrite[id] = ver
	}
	if len(mg.queue) == 0 {
		n.mu.Unlock()
		return
	}
	next := mg.queue[0]
	mg.queue = mg.queue[1:]
	mg.held = true
	mg.holder = int(next.from)
	n.grantFromManagerLocked(mg, lk, next, n.arrival(&m)) // releases n.mu
}

// LockVersion reports lock l's version as known to this node (testing
// and diagnostics).
func (n *Node) LockVersion(l int) uint32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.knownVer[uint16(l)]
}
