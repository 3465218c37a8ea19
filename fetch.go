package lots

import (
	"fmt"
	"time"

	"repro/internal/object"
	"repro/internal/stats/phases"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Object fetch (§3.3): when the access check finds the local copy
// invalid, a clean copy is brought in from the object's home with a
// single point-to-point request — the second benefit the paper claims
// for keeping a home: updates are never scattered across processes.

// fetchObject retrieves a clean copy of c from its home and applies any
// lock-scope updates that arrived while the copy was invalid; a copy
// installs once, so a reply that finds it valid again is dropped. Caller
// holds n.mu; it is released around the RPC.
func (n *Node) fetchObject(c *object.Control) {
	if c.Home == n.id {
		n.fatalf("lots: node %d: home copy of object %d is invalid", n.id, c.ID)
	}
	id := c.ID
	home := c.Home
	epoch := n.epoch
	n.mu.Unlock()
	var w wire.Buffer
	w.U64(uint64(id)).U32(epoch)
	ftc := n.tr.Begin(trace.FetchReq, epoch, uint64(id), wire.TraceCtx{})
	reply := n.rpcT(home, wire.TObjFetchReq, w.Bytes(), ftc)
	n.tr.End(ftc)
	n.mu.Lock()
	if reply.Type != wire.TObjFetchReply {
		n.fatalf("lots: node %d: fetch of object %d: reply %v", n.id, id, reply.Type)
	}
	r := wire.NewReader(reply.Payload)
	data := r.Bytes32InPlace() // copied into the local span below; reply is not retained
	ver := r.U32()
	leased := r.Bool()
	if r.Err() != nil || len(data) != c.Size {
		n.fatalf("lots: node %d: fetch of object %d: bad payload (%d bytes, want %d)",
			n.id, id, len(data), c.Size)
	}
	if c.State != object.Invalid {
		// Another fetch of c ran while n.mu was dropped — the application's
		// and a grant service's can overlap — and installed its image and
		// replayed the deferred updates, which this image lacks.
		return
	}
	c.State = object.Clean
	c.Ver = ver
	c.Lease = leased
	copy(n.objData(c), data)
	if n.mapper != nil {
		n.mapper.MarkDirty(c)
	}
	n.ctr.ObjFetches.Add(1)
	n.clock.Advance(n.prof.WordsCost(c.Words()))

	// Replay the updates deferred while the copy was invalid, uncharged:
	// the charge above paid for writing the whole object.
	for _, p := range n.deferred[id] {
		n.applyScopeDiff(c, p.lock, p.ver, p.d)
	}
	delete(n.deferred, id)
}

// serveFetch runs at the object's home. It gates on the barrier
// reconciliation: a fast peer may request an object before this home
// has applied all the diffs the barrier manager promised it, or before
// this node has even processed its own barrier exit.
func (n *Node) serveFetch(m wire.Message) {
	r := wire.NewReader(m.Payload)
	id := object.ID(r.U64())
	reqEpoch := r.U32()
	if r.Err() != nil {
		n.fatalf("lots: bad fetch request: %v", r.Err())
	}
	serveAt := time.Now()
	defer func() { n.ph.Observe(reqEpoch, phases.FetchServe, time.Since(serveAt)) }()
	stc := n.tr.Begin(trace.FetchServe, reqEpoch, uint64(id), m.Trace)
	defer n.tr.End(stc)
	lc := n.svcClock(m)
	n.mu.Lock()
	for n.epoch < reqEpoch || n.pendingDiffs[id] > 0 {
		n.cond.Wait()
	}
	c := n.lookup(id)
	// An open RW view means the span is mid-mutation without the node
	// lock held; defer until the mutation window closes so the served
	// copy is never torn (and never races the writer's stores).
	for c.RWViews > 0 || n.pendingDiffs[id] > 0 {
		n.cond.Wait()
	}
	// The served copy cannot predate the reconciliation diffs this
	// home applied for the barrier the requester has passed.
	lc.MergeTo(time.Duration(c.ReconcileNS))
	restore := n.useClock(lc)
	if c.Home != n.id {
		restore()
		n.mu.Unlock()
		n.fatalf("lots: node %d: fetch for object %d homed at %d", n.id, id, c.Home)
	}
	if c.State == object.Invalid {
		restore()
		n.mu.Unlock()
		n.fatalf("lots: node %d: serving fetch from invalid home copy of %d", n.id, id)
	}
	data := n.objData(c)
	var w wire.Buffer
	w.Grow(4 + len(data) + 5).Bytes32(data)
	w.U32(c.Ver).Bool(n.leaseGrantLocked(c, m.From))
	lc.Advance(n.prof.WordsCost(c.Words()))
	restore()
	n.mu.Unlock()
	n.reply(m, wire.TObjFetchReply, w.Bytes(), lc.Now())
}

// ---- Remote swap (paper §5 future work, implemented as an extension) ---

// Remote swap lets a node whose local disk is full spill objects to a
// peer's disk. The peer namespaces remote spills away from its own.

// remoteKey namespaces a remote spill: top bit set, owner rank in the
// next 8 bits.
func remoteKey(owner uint16, id uint64) uint64 {
	return 1<<63 | uint64(owner)<<54 | (id & (1<<54 - 1))
}

func (n *Node) serveRemoteSwapOut(m wire.Message) {
	r := wire.NewReader(m.Payload)
	id := r.U64()
	data := r.Bytes32()
	if r.Err() != nil {
		n.fatalf("lots: bad remote swap-out: %v", r.Err())
	}
	lc := n.svcClock(m)
	var w wire.Buffer
	if n.store == nil {
		w.Bool(false).Bytes32([]byte("no backing store"))
	} else if err := n.store.Write(remoteKey(m.From, id), data); err != nil {
		w.Bool(false).Bytes32([]byte(err.Error()))
	} else {
		w.Bool(true).Bytes32(nil)
		lc.Advance(n.prof.DiskWrite(len(data)))
	}
	n.reply(m, wire.TRemoteSwapReply, w.Bytes(), lc.Now())
}

func (n *Node) serveRemoteSwapIn(m wire.Message) {
	r := wire.NewReader(m.Payload)
	id := r.U64()
	size := int(r.U32())
	if r.Err() != nil {
		n.fatalf("lots: bad remote swap-in: %v", r.Err())
	}
	lc := n.svcClock(m)
	var w wire.Buffer
	switch {
	case n.store == nil:
		w.Bool(false).Bytes32([]byte("no backing store"))
	case int64(size) > n.store.Used():
		// The size is the peer's word, and no spill can be larger than
		// everything the store holds: refuse before it sizes a buffer.
		w.Bool(false).Bytes32([]byte("no spill that large"))
	default:
		buf := make([]byte, size)
		if err := n.store.Read(remoteKey(m.From, id), buf); err != nil {
			w.Bool(false).Bytes32([]byte(err.Error()))
		} else {
			w.Bool(true).Bytes32(buf)
			lc.Advance(n.prof.DiskRead(size))
		}
	}
	n.reply(m, wire.TRemoteSwapReply, w.Bytes(), lc.Now())
}

// remoteSwapOut spills data for object id to peer's disk (§5 extension).
func (n *Node) remoteSwapOut(peer int, id uint64, data []byte) error {
	var w wire.Buffer
	w.U64(id).Bytes32(data)
	reply := n.rpc(peer, wire.TRemoteSwapOut, w.Bytes())
	r := wire.NewReader(reply.Payload)
	if ok := r.Bool(); !ok {
		msg := r.Bytes32()
		return fmt.Errorf("lots: remote swap-out to node %d: %s", peer, msg)
	}
	return nil
}

// remoteSwapIn reads object id's spill back from peer's disk.
func (n *Node) remoteSwapIn(peer int, id uint64, dst []byte) error {
	var w wire.Buffer
	w.U64(id).U32(uint32(len(dst)))
	reply := n.rpc(peer, wire.TRemoteSwapIn, w.Bytes())
	r := wire.NewReader(reply.Payload)
	if ok := r.Bool(); !ok {
		msg := r.Bytes32()
		return fmt.Errorf("lots: remote swap-in from node %d: %s", peer, msg)
	}
	data := r.Bytes32()
	if r.Err() != nil || len(data) != len(dst) {
		return fmt.Errorf("lots: remote swap-in from node %d: bad payload", peer)
	}
	copy(dst, data)
	return nil
}

// EnableRemoteSwap rewires this node's backing store so that local
// disk exhaustion overflows to peer's disk — the paper's §5 remote-disk
// swapping extension. Call it at the start of the SPMD function, before
// any object spills.
func (n *Node) EnableRemoteSwap(peer int) {
	if peer == n.id {
		n.fatalf("lots: node %d: remote swap peer must differ", n.id)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.store == nil || n.mapper == nil {
		n.fatalf("lots: node %d: remote swap requires the large object space", n.id)
	}
	n.store = NewRemoteFallbackStore(n.store, n, peer)
	n.mapper.SetStore(n.store)
}

// RemoteSpills reports how many objects this node has spilled to its
// remote-swap peer's disk (0 when EnableRemoteSwap was never called).
// Deployment smoke runs use it to assert the remote path actually ran.
func (n *Node) RemoteSpills() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if rf, ok := n.store.(*remoteFallbackStore); ok {
		return rf.Spills()
	}
	return 0
}
