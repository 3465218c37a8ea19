package lots

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/object"
	"repro/internal/recovery"
	"repro/internal/stats/phases"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Checkpoint/recovery subsystem (Config.Recovery): survive a rank
// death without losing the run.
//
// Barriers are the protocol's global consistency points: when a rank
// finishes its barrier-exit processing, every diff it is owed has been
// applied, its own version bumps are settled, and all mid-epoch state
// (twins, dirty copies) has been reconciled into homes. A checkpoint
// taken there — each rank serializing exactly the objects it homes —
// is therefore a consistent cut of the shared space with no
// cross-rank coordination beyond the barrier itself.
//
// Checkpoints are incremental: data versions (Control.Ver, bumped only
// when a synchronization event actually moves an object's bytes) tell
// the checkpointer which objects changed since its last checkpoint.
// Unchanged objects appear in the manifest with no bytes (CkptSkipped
// counts them); restore walks the owner's older increments for their
// data. Each increment is persisted to the
// rank's local store (atomic file per epoch) and pushed to a buddy
// rank over the DSM transport, so recovery survives the total loss of
// one rank's checkpoint directory.
//
// Recovery is a gang restart orchestrated by the launcher: when a rank
// dies, the survivors stall at their next barrier (the manager never
// sees N arrivals), the launcher tears the fleet down and relaunches
// every rank with Resume set. After the ordinary barrier-0 join, each
// rank re-runs its deterministic allocation prologue and calls
// Node.Recover, which negotiates the newest epoch every owner can
// still materialize (through rank 0), restores it — fetching owners
// whose local chain is gone from whichever peer's store replicated
// them (TRehome; Rehomes counts these) — rebuilds the object -> home
// map cluster-wide, and returns the epoch index to resume at. Lock
// versions restart at zero on every rank alike.

// trackVer reports whether data-version maintenance is on: the
// checkpointer needs it for incrementality.
func (n *Node) trackVer() bool { return n.cfg.Recovery != nil }

// bumpVerOnSelfWritesLocked settles the home's own contribution to an
// object's data version at barrier time: if this node wrote the object
// in the epoch and the bytes actually moved against the epoch twin,
// the version bumps. Caller holds n.mu.
func (n *Node) bumpVerOnSelfWritesLocked(c *object.Control) {
	if !c.WrittenInEpoch || c.Twin == nil || c.State == object.Invalid {
		return
	}
	if !bytes.Equal(n.objData(c, n.clock), c.Twin) {
		c.Ver++
	}
}

// identity returns the rank number whose checkpoint chain this node
// owns: its own rank, unless a degraded restart remapped it.
func (n *Node) identity() int {
	if r := n.cfg.Recovery; r != nil && r.RankMap != nil {
		return r.RankMap[n.id]
	}
	return n.id
}

// recoveryStore opens (once) this rank's checkpoint store.
func (n *Node) recoveryStore() *recovery.Store {
	n.rstoreOnce.Do(func() {
		dir := filepath.Join(n.cfg.Recovery.Root, fmt.Sprintf("rank-%02d", n.identity()))
		n.rstore, n.rstoreErr = recovery.Open(dir)
	})
	if n.rstoreErr != nil {
		n.fatalf("lots: node %d: opening checkpoint store: %v", n.id, n.rstoreErr)
	}
	return n.rstore
}

// ckptBuddy returns the rank this node replicates its checkpoints to,
// (id+1) mod Nodes, so recovery survives the total loss of a rank's
// checkpoint directory; or -1 without recovery or on one node.
func (n *Node) ckptBuddy() int {
	if n.cfg.Recovery == nil || n.cfg.Nodes < 2 {
		return -1
	}
	return (n.id + 1) % n.cfg.Nodes
}

// checkpointAfterBarrier writes this rank's incremental checkpoint for
// the barrier epoch just completed: a manifest of every object homed
// here, with bytes only for those whose data version moved since the
// rank's previous checkpoint. Runs on the application goroutine right
// after barrier-exit processing, so the application cannot have
// mutated anything yet and the cut is exactly the post-barrier state.
func (n *Node) checkpointAfterBarrier(epoch uint32) {
	if n.cfg.Recovery == nil {
		return
	}
	cutAt := time.Now()
	defer func() { n.ph.Observe(epoch, phases.CkptCut, time.Since(cutAt)) }()
	ctc := n.tr.Begin(trace.CkptCut, epoch, 0, wire.TraceCtx{})
	defer n.tr.End(ctc)
	n.mu.Lock()
	if n.ckptVers == nil {
		n.ckptVers = make(map[object.ID]uint32)
	}
	var ids []object.ID
	n.table.ForEach(func(c *object.Control) {
		if c.Home == n.id {
			ids = append(ids, c.ID)
		}
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	put := wire.CkptPut{Owner: uint16(n.identity()), Epoch: epoch, Segs: make([]wire.CkptSeg, 0, len(ids))}
	for _, id := range ids {
		c := n.lookup(id)
		if c.State == object.Invalid {
			n.mu.Unlock()
			n.fatalf("lots: node %d: checkpointing invalid home copy of object %d", n.id, id)
		}
		seg := wire.CkptSeg{ID: uint64(id), Ver: c.Ver, Size: uint32(c.Size), Elem: uint32(c.Elem)}
		last, seen := n.ckptVers[id]
		switch {
		case c.State == object.Initial:
			// Never synchronized: bytes are all zero everywhere and are
			// not carried.
			seg.Flag = wire.CkptSegZero
		case seen && last == c.Ver:
			// The version machinery says no synchronization event moved
			// these bytes since our last checkpoint: zero bytes here,
			// restore resolves them from the older increment.
			seg.Flag = wire.CkptSegUnchanged
			n.ctr.CkptSkipped.Add(1)
		default:
			seg.Flag = wire.CkptSegData
			seg.Data = append([]byte(nil), n.objData(c, n.clock)...)
			n.ctr.CkptBytes.Add(int64(len(seg.Data)))
		}
		n.ckptVers[id] = c.Ver
		put.Segs = append(put.Segs, seg)
	}
	n.mu.Unlock()

	if err := n.recoveryStore().Put(put); err != nil {
		n.fatalf("lots: node %d: writing checkpoint for epoch %d: %v", n.id, epoch, err)
	}
	n.ctr.Ckpts.Add(1)
	if buddy := n.ckptBuddy(); buddy >= 0 {
		var w wire.Buffer
		put.Encode(&w)
		// Awaiting the ack before the application proceeds is what makes
		// the replica trustworthy: once the next epoch starts, the buddy
		// durably holds this one.
		if reply := n.rpcT(buddy, wire.TCkptPut, w.Bytes(), ctc, n.clock); reply.Type != wire.TCkptAck {
			n.fatalf("lots: node %d: checkpoint push to node %d: reply %v", n.id, buddy, reply.Type)
		}
	}
}

// serveCkptPut persists a buddy's checkpoint increment in this rank's
// store, under the buddy's owner key.
func (n *Node) serveCkptPut(m wire.Message) {
	p, err := wire.DecodeCkptPut(wire.NewReader(m.Payload))
	if err != nil {
		n.fatalf("lots: node %d: bad checkpoint push: %v", n.id, err)
	}
	if err := n.recoveryStore().Put(p); err != nil {
		n.fatalf("lots: node %d: persisting buddy checkpoint: %v", n.id, err)
	}
	n.reply(m, wire.TCkptAck, nil, n.arrival(&m))
}

// serveRehome answers a recovering rank's fetch of an owner's
// materialized checkpoint from this rank's store.
func (n *Node) serveRehome(m wire.Message) {
	q, err := wire.DecodeRehomeQ(wire.NewReader(m.Payload))
	if err != nil {
		n.fatalf("lots: node %d: bad rehome query: %v", n.id, err)
	}
	var rep wire.RehomeReply
	if ck, err := n.recoveryStore().Materialize(int(q.Owner), q.Epoch); err == nil {
		rep = wire.RehomeReply{Found: true, Ckpt: ck}
	}
	var w wire.Buffer
	rep.Encode(&w)
	n.reply(m, wire.TRehomeReply, w.Bytes(), n.arrival(&m))
}

// ---- Recovery negotiation (rank 0 coordinator) --------------------------

// recoverMgr collects the two negotiation rounds on rank 0: arrivals
// (what every rank can restore) and readiness (what every rank now
// homes). Guarded by the node's big lock.
type recoverMgr struct {
	arrives  []wire.Message
	arriveBy map[int]wire.RecoverArrive
	readys   []wire.Message
	readyBy  map[int]wire.RecoverReady
}

// serveRecoverArrive runs on rank 0. Once every rank has checked in it
// picks the newest epoch every owner of the old cluster can
// materialize somewhere, assigns each owner a home (the rank carrying
// its identity, else the lowest rank holding its data) and a source
// store, and answers everyone with the same plan.
func (n *Node) serveRecoverArrive(m wire.Message) {
	a, err := wire.DecodeRecoverArrive(wire.NewReader(m.Payload))
	if err != nil {
		n.fatalf("lots: node %d: bad recover arrival: %v", n.id, err)
	}
	n.mu.Lock()
	if n.rmgr == nil {
		n.rmgr = &recoverMgr{arriveBy: make(map[int]wire.RecoverArrive), readyBy: make(map[int]wire.RecoverReady)}
	}
	rm := n.rmgr
	rm.arrives = append(rm.arrives, m)
	rm.arriveBy[int(m.From)] = a
	if len(rm.arrives) < n.cfg.Nodes {
		n.mu.Unlock()
		return
	}
	msgs := rm.arrives
	rm.arrives = nil

	oldN := n.cfg.Recovery.OldNodes
	identityOf := make(map[int]int, n.cfg.Nodes) // owner -> rank carrying it
	for r := range rm.arriveBy {
		identityOf[int(rm.arriveBy[r].Identity)] = r
	}
	// avail[owner][epoch] = sorted ranks that can materialize it.
	avail := make(map[int]map[uint32][]int)
	ranks := make([]int, 0, len(rm.arriveBy))
	for r := range rm.arriveBy {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		for _, oe := range rm.arriveBy[r].Avail {
			o := int(oe.Owner)
			if avail[o] == nil {
				avail[o] = make(map[uint32][]int)
			}
			for _, e := range oe.Epochs {
				avail[o][e] = append(avail[o][e], r)
			}
		}
	}
	// Feasible epochs: present for every old owner somewhere. Owners
	// with no data at all (a rank died before its first checkpoint, and
	// no replica survived) leave no feasible epoch: fresh start.
	var plan wire.RecoverPlan
	if len(avail) > 0 {
		feasible := map[uint32]bool{}
		for e := range avail[0] {
			feasible[e] = true
		}
		for o := 0; o < oldN; o++ {
			for e := range feasible {
				if len(avail[o][e]) == 0 {
					delete(feasible, e)
				}
			}
		}
		best, found := uint32(0), false
		for e := range feasible {
			if !found || e > best {
				best, found = e, true
			}
		}
		if found {
			plan.Found = true
			plan.Epoch = best
			for o := 0; o < oldN; o++ {
				src := avail[o][best][0]
				home, carried := identityOf[o]
				if !carried {
					// Orphaned owner (degraded restart): home it where its
					// replicated data already sits.
					home = src
				} else {
					for _, r := range avail[o][best] {
						if r == home {
							src = home // prefer the home's own store
							break
						}
					}
				}
				plan.Assign = append(plan.Assign, wire.RehomeAssign{
					Owner: uint16(o), Home: uint16(home), Source: uint16(src),
				})
			}
		}
	}
	n.mu.Unlock()
	var w wire.Buffer
	plan.Encode(&w)
	for _, am := range msgs {
		n.reply(am, wire.TRecoverPlan, w.Bytes(), n.arrival(&am))
	}
}

// serveRecoverReady runs on rank 0: once every rank reports the
// objects it restored as home, the full object -> home map is
// installed into the barrier manager and broadcast back.
func (n *Node) serveRecoverReady(m wire.Message) {
	q, err := wire.DecodeRecoverReady(wire.NewReader(m.Payload))
	if err != nil {
		n.fatalf("lots: node %d: bad recover ready: %v", n.id, err)
	}
	n.mu.Lock()
	rm := n.rmgr
	if rm == nil {
		n.mu.Unlock()
		n.fatalf("lots: node %d: recover ready before arrival round", n.id)
	}
	rm.readys = append(rm.readys, m)
	rm.readyBy[int(q.Node)] = q
	if len(rm.readys) < n.cfg.Nodes {
		n.mu.Unlock()
		return
	}
	msgs := rm.readys
	rm.readys = nil
	var homes wire.RecoverHomes
	for r, rq := range rm.readyBy {
		for _, id := range rq.IDs {
			homes.Items = append(homes.Items, wire.HomePair{ID: id, Home: uint16(r)})
		}
	}
	sort.Slice(homes.Items, func(i, j int) bool { return homes.Items[i].ID < homes.Items[j].ID })
	n.mu.Unlock()
	var w wire.Buffer
	homes.Encode(&w)
	for _, am := range msgs {
		n.reply(am, wire.TRecoverHomes, w.Bytes(), n.arrival(&am))
	}
}

// ---- Recovering rank ----------------------------------------------------

// Recovering reports whether this process was launched as a restarted
// rank and must call Recover after its allocation prologue.
func (n *Node) Recovering() bool {
	return n.cfg.Recovery != nil && n.cfg.Recovery.Resume
}

// Recover restores this rank from the newest commonly restorable
// checkpoint. The application must call it after declaring every
// shared object (the deterministic SPMD allocation prologue) and
// before any shared access; it returns the barrier-epoch index to
// resume the epoch loop at (0 means nothing was restorable: run from
// the start). All ranks must call it collectively, like a barrier.
func (n *Node) Recover() int {
	if !n.Recovering() {
		n.fatalf("lots: node %d: Recover without Config.Recovery.Resume", n.id)
	}
	store := n.recoveryStore()

	// Round 1: report what this rank's store can restore, learn the
	// chosen epoch and the owner -> (home, source) assignments.
	owners, err := store.Owners()
	if err != nil {
		n.fatalf("lots: node %d: scanning checkpoint store: %v", n.id, err)
	}
	arrive := wire.RecoverArrive{Identity: uint16(n.identity())}
	for _, o := range owners {
		eps, err := store.Available(o)
		if err != nil {
			n.fatalf("lots: node %d: scanning checkpoint chain of owner %d: %v", n.id, o, err)
		}
		if len(eps) > 0 {
			arrive.Avail = append(arrive.Avail, wire.OwnerEpochs{Owner: uint16(o), Epochs: eps})
		}
	}
	var w wire.Buffer
	arrive.Encode(&w)
	reply := n.rpc(0, wire.TRecoverArrive, w.Bytes())
	if reply.Type != wire.TRecoverPlan {
		n.fatalf("lots: node %d: recover arrival reply %v", n.id, reply.Type)
	}
	plan, err := wire.DecodeRecoverPlan(wire.NewReader(reply.Payload))
	if err != nil {
		n.fatalf("lots: node %d: bad recover plan: %v", n.id, err)
	}
	if !plan.Found {
		// Nothing restorable anywhere (death before the first
		// checkpoint): the run starts from scratch. The ready round still
		// runs so every rank agrees.
		n.finishRecover(nil, 0, false)
		return 0
	}

	// Round 2: restore the owners assigned to this rank — from the
	// local store when possible, else from the peer that replicated
	// them.
	var homedIDs []uint64
	for _, a := range plan.Assign {
		if int(a.Home) != n.id {
			continue
		}
		var ck wire.CkptPut
		if int(a.Source) == n.id {
			ck, err = store.Materialize(int(a.Owner), plan.Epoch)
			if err != nil {
				n.fatalf("lots: node %d: materializing owner %d at epoch %d: %v", n.id, a.Owner, plan.Epoch, err)
			}
		} else {
			var wq wire.Buffer
			wire.RehomeQ{Owner: a.Owner, Epoch: plan.Epoch}.Encode(&wq)
			rep := n.rpc(int(a.Source), wire.TRehome, wq.Bytes())
			if rep.Type != wire.TRehomeReply {
				n.fatalf("lots: node %d: rehome reply %v", n.id, rep.Type)
			}
			rr, err := wire.DecodeRehomeReply(wire.NewReader(rep.Payload))
			if err != nil {
				n.fatalf("lots: node %d: bad rehome reply: %v", n.id, err)
			}
			if !rr.Found {
				n.fatalf("lots: node %d: node %d no longer holds owner %d at epoch %d", n.id, a.Source, a.Owner, plan.Epoch)
			}
			ck = rr.Ckpt
		}
		if int(a.Source) != n.id || int(a.Owner) != n.identity() {
			n.ctr.Rehomes.Add(1)
		}
		n.restoreSegs(ck)
		for _, seg := range ck.Segs {
			homedIDs = append(homedIDs, seg.ID)
		}
	}
	sort.Slice(homedIDs, func(i, j int) bool { return homedIDs[i] < homedIDs[j] })
	n.finishRecover(homedIDs, plan.Epoch, true)
	return int(plan.Epoch) + 1
}

// restoreSegs installs one owner's materialized checkpoint into this
// rank's table as home copies.
func (n *Node) restoreSegs(ck wire.CkptPut) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, seg := range ck.Segs {
		c := n.lookup(object.ID(seg.ID))
		if c.Size != int(seg.Size) || c.Elem != int(seg.Elem) {
			n.fatalf("lots: node %d: checkpointed object %d is %dx%d, allocated %dx%d — allocation prologue diverged",
				n.id, seg.ID, seg.Size, seg.Elem, c.Size, c.Elem)
		}
		c.Home = n.id
		c.Ver = seg.Ver
		switch seg.Flag {
		case wire.CkptSegZero:
			c.State = object.Initial
		case wire.CkptSegData:
			c.State = object.Clean
			copy(n.objData(c, n.clock), seg.Data)
			if n.mapper != nil {
				n.mapper.MarkDirty(c)
			}
		default:
			n.fatalf("lots: node %d: restoring unmaterialized segment for object %d", n.id, seg.ID)
		}
		// ckptVers stays unseeded: the first post-recovery checkpoint is
		// a full re-base, so wiped local stores and fresh buddy chains
		// get byte-complete foundations.
	}
}

// finishRecover runs the ready round and applies the cluster-wide home
// map, then points the epoch counter past the restored barrier.
func (n *Node) finishRecover(homedIDs []uint64, epoch uint32, found bool) {
	var w wire.Buffer
	wire.RecoverReady{Node: uint16(n.id), IDs: homedIDs}.Encode(&w)
	reply := n.rpc(0, wire.TRecoverReady, w.Bytes())
	if reply.Type != wire.TRecoverHomes {
		n.fatalf("lots: node %d: recover ready reply %v", n.id, reply.Type)
	}
	homes, err := wire.DecodeRecoverHomes(wire.NewReader(reply.Payload))
	if err != nil {
		n.fatalf("lots: node %d: bad recover homes: %v", n.id, err)
	}
	n.mu.Lock()
	for _, it := range homes.Items {
		c := n.lookup(object.ID(it.ID))
		c.Home = int(it.Home)
		if c.Home != n.id {
			// This fresh process holds no bytes for it: the first access
			// fetches from the restored home.
			c.State = object.Invalid
			c.Ver = 0
		}
	}
	if found {
		n.epoch = epoch + 1
	}
	n.wakeLocked() // fetches parked on the epoch advance
	n.mu.Unlock()
}
