package lots

import (
	"bytes"
	"sort"
	"time"

	"repro/internal/diffing"
	"repro/internal/object"
	"repro/internal/stats/phases"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Lease-based read-mostly coherence: revalidate instead of invalidate.
//
// The paper's barrier protocol invalidates every non-home copy of every
// object written in the epoch (§3.4), so a read-mostly object whose
// bytes the home never actually changed — a touched-but-identical SOR
// boundary row, a re-published RX prefix — still costs each reader a
// full fetch round-trip in the next epoch. The lease extension
// (Config.Leases) removes exactly those round-trips:
//
//   - Homes stamp each object with a monotonically increasing data
//     version (Control.Ver), bumped only when a synchronization event
//     actually mutates the object's bytes: a barrier diff or home-based
//     lock flush whose application changed words, a lock-grant diff
//     applied to the home's own copy, or the home's own epoch writes
//     (data != twin at barrier time).
//   - Fetch replies carry the version and, table capacity permitting, a
//     bounded read lease; the home remembers (object, cacher) in a
//     FIFO-evicted lease table.
//   - At barrier exit, instead of invalidating, a cacher batches one
//     TLeaseQ per home over its leased still-clean copies. The home
//     answers after its own reconciliation of that epoch has settled
//     the queried objects: version unchanged and lease record intact
//     means the copy is byte-identical to the home's and stays valid
//     with zero data transfer (LEASEOK); otherwise the cacher demotes
//     to the ordinary invalidate-and-fetch path.
//
// Safety invariant: within one home tenure, Ver bumps whenever the
// home's bytes change, so version equality implies byte equality.
// Across a home migration the records do not travel — the new home's
// table cannot know the old home's cachers, so every revalidation at a
// freshly migrated home misses and demotes. That locality is what
// makes the version comparison sound without migrating any lease
// state: a migration implicitly revokes all outstanding leases.
//
// A lease is a pure-read promise on the cacher too: the copy forfeits
// it the moment it stops being an exact fetched image — a local write
// (Ptr.Set or an RW view's write check), an applied lock-scope grant
// diff, or an invalidation all clear Control.Lease, so a copy that
// diverged from the home mid-epoch can never pass revalidation by
// accident even when the home's net change for the epoch was zero.

// leaseKey identifies one granted lease: object x cacher.
type leaseKey struct {
	id   object.ID
	node uint16
}

// leaseSlot is one FIFO position: the key plus the generation it was
// granted under, so a key's dead (dropped, then re-granted) slots are
// distinguishable from its live one.
type leaseSlot struct {
	key leaseKey
	gen uint64
}

// leaseTable is a home's bounded lease memory. Eviction is FIFO over
// grant order with lazy deletion: dropped keys leave dead slots behind
// and a re-grant appends a fresh slot, so each slot carries its grant
// generation and eviction only removes a lease whose generation still
// matches — a stale slot can never evict the key's newer lease. An
// evicted cacher's next revalidation simply demotes, so the bound
// trades re-fetches for memory, never correctness. Guarded by the
// node's big lock.
type leaseTable struct {
	cap  int
	gen  uint64
	m    map[leaseKey]uint64 // key -> generation of its live slot
	fifo []leaseSlot
}

func newLeaseTable(capacity int) *leaseTable {
	return &leaseTable{cap: capacity, m: make(map[leaseKey]uint64)}
}

// grant records a lease for k, evicting the oldest live entry if the
// table is full. Re-granting an existing lease renews it in place
// (keeping its original FIFO position).
func (t *leaseTable) grant(k leaseKey) {
	if _, live := t.m[k]; live {
		return
	}
	for len(t.m) >= t.cap && len(t.fifo) > 0 {
		old := t.fifo[0]
		t.fifo = t.fifo[1:]
		if t.m[old.key] == old.gen {
			delete(t.m, old.key)
		}
	}
	t.gen++
	t.m[k] = t.gen
	t.fifo = append(t.fifo, leaseSlot{key: k, gen: t.gen})
	if len(t.fifo) > 2*t.cap {
		t.compact()
	}
}

// has reports whether k's lease is still recorded.
func (t *leaseTable) has(k leaseKey) bool {
	_, live := t.m[k]
	return live
}

// drop forgets k (demotion or revocation); k's FIFO slot goes dead.
func (t *leaseTable) drop(k leaseKey) { delete(t.m, k) }

// compact rewrites the FIFO without dead slots, so lazy deletion
// cannot grow it past 2*cap for long.
func (t *leaseTable) compact() {
	live := t.fifo[:0]
	for _, s := range t.fifo {
		if t.m[s.key] == s.gen {
			live = append(live, s)
		}
	}
	t.fifo = live
}

// len reports the live entry count (testing).
func (t *leaseTable) len() int { return len(t.m) }

// ---- Home side ----------------------------------------------------------

// serveLeaseQ answers a batched revalidation at the home. Like
// serveFetch it must gate on this node's own reconciliation progress: a
// verdict issued before the home has registered its barrier
// expectations, applied every diff it is owed for the queried object,
// and settled its own epoch writes could vouch for a version its
// reconciliation was about to bump — the stale-read divergence the
// adversarial conformance test drives at.
func (n *Node) serveLeaseQ(m wire.Message) {
	q, err := wire.DecodeLeaseQ(wire.NewReader(m.Payload))
	if err != nil {
		n.fatalf("lots: node %d: bad lease query: %v", n.id, err)
	}
	lc := n.svcClock(m)
	n.mu.Lock()
	// reconEpoch advances to E+1 once this node's exit processing for
	// barrier E has registered expectations and settled the home's own
	// version bumps; a query for epoch E waits for exactly that.
	for n.reconEpoch <= q.Epoch {
		n.cond.Wait()
	}
	reply := wire.LeaseReply{Items: make([]wire.LeaseVerdict, 0, len(q.Items))}
	for _, it := range q.Items {
		id := object.ID(it.ID)
		for n.pendingDiffs[id] > 0 {
			n.cond.Wait()
		}
		c := n.lookup(id)
		k := leaseKey{id: id, node: m.From}
		ok := n.cfg.Leases && c.Home == n.id && c.State != object.Invalid &&
			n.leaseTab.has(k) && c.Ver == it.Ver
		if !ok {
			n.leaseTab.drop(k)
		}
		// The verdict cannot predate the reconciliation diffs this home
		// applied for the epoch the requester is leaving.
		lc.MergeTo(time.Duration(c.ReconcileNS))
		reply.Items = append(reply.Items, wire.LeaseVerdict{ID: it.ID, OK: ok, Ver: c.Ver})
	}
	n.mu.Unlock()
	var w wire.Buffer
	reply.Encode(&w)
	n.reply(m, wire.TLeaseReply, w.Bytes(), lc.Now())
}

// leaseGrantLocked records a lease for a fetch served to requester and
// reports whether one was granted. Caller holds n.mu (serveFetch).
func (n *Node) leaseGrantLocked(c *object.Control, requester uint16) bool {
	if !n.cfg.Leases || int(requester) == n.id {
		return false
	}
	n.leaseTab.grant(leaseKey{id: c.ID, node: requester})
	n.ctr.LeasesGranted.Add(1)
	return true
}

// bumpVerOnSelfWritesLocked settles the home's own contribution to an
// object's data version at barrier time: if this node wrote the object
// in the epoch and the bytes actually moved against the epoch twin,
// the version bumps. It must run before reconEpoch advances (i.e.
// before any LEASEOK for this epoch can be issued). Caller holds n.mu.
func (n *Node) bumpVerOnSelfWritesLocked(c *object.Control) {
	if !c.WrittenInEpoch || c.Twin == nil || c.State == object.Invalid {
		return
	}
	if !bytes.Equal(n.objData(c), c.Twin) {
		c.Ver++
	}
}

// ---- Byte-change detection for diff application -------------------------

// stampedRunShadow snapshots the destination bytes every run of d
// covers, so the caller can detect whether applying d actually changed
// anything. Out-of-range runs snapshot nothing (Apply will reject
// them).
func stampedRunShadow(data []byte, d diffing.StampedDiff) [][]byte {
	out := make([][]byte, len(d.Runs))
	for i, r := range d.Runs {
		lo, hi := int(r.Off), int(r.Off)+len(r.Data)
		if lo >= len(data) || hi > len(data) {
			continue
		}
		out[i] = append([]byte(nil), data[lo:hi]...)
	}
	return out
}

// stampedRunsChanged reports whether the bytes under d's runs differ
// from the pre-apply shadow.
func stampedRunsChanged(data []byte, d diffing.StampedDiff, shadow [][]byte) bool {
	for i, r := range d.Runs {
		if shadow[i] == nil {
			continue
		}
		if !bytes.Equal(data[int(r.Off):int(r.Off)+len(shadow[i])], shadow[i]) {
			return true
		}
	}
	return false
}

// diffRunShadow / diffRunsChanged are the plain-diff analogues, used
// when a lock-grant diff lands on a home copy.
func diffRunShadow(data []byte, d diffing.Diff) [][]byte {
	out := make([][]byte, len(d.Runs))
	for i, r := range d.Runs {
		lo, hi := int(r.Off), int(r.Off)+len(r.Data)
		if lo >= len(data) || hi > len(data) {
			continue
		}
		out[i] = append([]byte(nil), data[lo:hi]...)
	}
	return out
}

func diffRunsChanged(data []byte, d diffing.Diff, shadow [][]byte) bool {
	for i, r := range d.Runs {
		if shadow[i] == nil {
			continue
		}
		if !bytes.Equal(data[int(r.Off):int(r.Off)+len(shadow[i])], shadow[i]) {
			return true
		}
	}
	return false
}

// ---- Cacher side --------------------------------------------------------

// leaseRevalidate runs the cacher half of the barrier-time protocol:
// collect this node's leased, still-clean copies of reconciled objects,
// send one batched TLeaseQ per (new) home, and return the set of
// objects whose leases held — those skip invalidation entirely. It
// must be called after this node's own barrier diffs were sent (a home
// cannot answer before the diffs it is owed arrive) and before the
// plan-application step that would otherwise invalidate the copies.
// Caller must NOT hold n.mu.
func (n *Node) leaseRevalidate(epoch uint32, plans []barrierPlan) map[object.ID]bool {
	if !n.cfg.Leases || n.cfg.Protocol.Barrier == BarrierUpdateBroadcast {
		return nil
	}
	revalAt := time.Now()
	defer func() { n.ph.Observe(epoch, phases.LeaseReval, time.Since(revalAt)) }()
	batches := make(map[int][]wire.LeaseQItem)
	n.mu.Lock()
	for _, p := range plans {
		if p.home == n.id {
			continue
		}
		c := n.lookup(p.id)
		if !c.Lease || c.State != object.Clean {
			continue
		}
		batches[p.home] = append(batches[p.home], wire.LeaseQItem{ID: uint64(p.id), Ver: c.Ver})
	}
	n.mu.Unlock()
	if len(batches) == 0 {
		return nil
	}
	homes := make([]int, 0, len(batches))
	for h := range batches {
		homes = append(homes, h)
	}
	sort.Ints(homes)
	queries := make([]call, len(homes))
	for i, home := range homes {
		var w wire.Buffer
		wire.LeaseQ{Epoch: epoch, Items: batches[home]}.Encode(&w)
		qtc := n.tr.Begin(trace.LeaseReval, epoch, uint64(len(batches[home])), wire.TraceCtx{})
		queries[i] = call{to: home, typ: wire.TLeaseQ, payload: w.Bytes(), tc: qtc}
	}
	replies := n.callAll(queries)
	kept := make(map[object.ID]bool)
	for i, home := range homes {
		reply := replies[i]
		n.tr.End(queries[i].tc)
		if reply.Type != wire.TLeaseReply {
			n.fatalf("lots: node %d: lease revalidation with node %d: reply %v", n.id, home, reply.Type)
		}
		rep, err := wire.DecodeLeaseReply(wire.NewReader(reply.Payload))
		if err != nil {
			n.fatalf("lots: node %d: bad lease reply from node %d: %v", n.id, home, err)
		}
		// Verdicts come back in request order (serveLeaseQ answers item
		// by item), so pair them by index — a shape mismatch is a
		// protocol error, not something to search around.
		if len(rep.Items) != len(batches[home]) {
			n.fatalf("lots: node %d: lease reply from node %d has %d verdicts for %d queries",
				n.id, home, len(rep.Items), len(batches[home]))
		}
		for j, it := range batches[home] {
			v := rep.Items[j]
			if v.ID != it.ID {
				n.fatalf("lots: node %d: lease reply from node %d out of order: verdict %d is for object %d, want %d",
					n.id, home, j, v.ID, it.ID)
			}
			if v.OK {
				kept[object.ID(it.ID)] = true
				n.ctr.LeaseHits.Add(1)
			} else {
				n.ctr.LeaseDemotes.Add(1)
			}
		}
	}
	return kept
}

// LeaseCount reports this node's live home-side lease table size
// (testing and diagnostics).
func (n *Node) LeaseCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaseTab.len()
}
