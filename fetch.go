package lots

import (
	"fmt"
	"time"

	"repro/internal/object"
	"repro/internal/stats"
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
// installs once, so a reply that finds it valid again is dropped. The
// round trip, the install and the replay are charged to clk: the
// application's clock for an access, a grant's service timeline for the
// grant's own fetch. Caller holds n.mu; it is released around the RPC.
func (n *Node) fetchObject(c *object.Control, clk *stats.SimClock) {
	if c.Home == n.id {
		n.fatalf("lots: node %d: home copy of object %d is invalid", n.id, c.ID)
	}
	id := c.ID
	home := c.Home
	epoch := n.epoch
	n.mu.Unlock()
	w := wire.PooledBuffer(8 + 4)
	w.U64(uint64(id)).U32(epoch)
	ftc := n.tr.Begin(trace.FetchReq, epoch, uint64(id), wire.TraceCtx{})
	reply := n.rpcT(home, wire.TObjFetchReq, w.Bytes(), ftc, clk)
	wire.PutSlab(w.Bytes()) // Send has copied it
	n.tr.End(ftc)
	n.mu.Lock()
	if reply.Type != wire.TObjFetchReply {
		n.fatalf("lots: node %d: fetch of object %d: reply %v", n.id, id, reply.Type)
	}
	r := wire.NewReader(reply.Payload)
	data := r.Bytes32InPlace() // copied into the local span below, then the reply is released
	ver := r.U32()
	if r.Err() != nil || r.Remaining() != 0 || len(data) != c.Size {
		n.fatalf("lots: node %d: fetch of object %d: bad payload (%d bytes, want %d)",
			n.id, id, len(data), c.Size)
	}
	if c.State != object.Invalid {
		// Another fetch of c ran while n.mu was dropped — the application's
		// and a grant's continuation can overlap — and installed its image
		// and replayed the deferred updates, which this image lacks.
		reply.Release()
		return
	}
	c.State = object.Clean
	c.Ver = ver
	copy(n.mapData(c, true, clk), data)
	reply.Release()
	if n.mapper != nil {
		n.mapper.MarkDirty(c)
	}
	n.ctr.ObjFetches.Add(1)
	clk.Advance(n.prof.WordsCost(c.Words()))

	// Replay the updates deferred while the copy was invalid, uncharged:
	// the charge above paid for writing the whole object.
	for _, p := range n.deferred[id] {
		n.applyScopeDiff(c, p.lock, p.ver, p.d, clk)
	}
	delete(n.deferred, id)
}

// serveFetch runs at the object's home. It parks a request that comes
// before this home has applied the diffs the barrier manager promised
// it, or has processed its own barrier exit, or while an open RW view
// has the span mid-mutation: the served copy is never torn. since and
// stc are the first arrival's wall time and trace span, zero on it.
func (n *Node) serveFetch(m *wire.Message, since time.Time, stc wire.TraceCtx) {
	r := wire.NewReader(m.Payload)
	id := object.ID(r.U64())
	reqEpoch := r.U32()
	if r.Err() != nil || r.Remaining() != 0 {
		n.fatalf("lots: bad fetch request: %d bytes, want 12", len(m.Payload))
	}
	if since.IsZero() {
		since, stc = time.Now(), n.tr.Begin(trace.FetchServe, reqEpoch, uint64(id), m.Trace)
	}
	n.mu.Lock()
	if n.epoch < reqEpoch || n.pendingDiffs[id] > 0 || n.lookup(id).RWViews > 0 {
		n.parkLocked((*Node).serveFetch, *m, since, stc)
		n.mu.Unlock()
		return
	}
	c := n.lookup(id)
	var lc stats.SimClock // this request's service timeline
	lc.MergeTo(n.arrival(m))
	// The served copy cannot predate the reconciliation diffs this
	// home applied for the barrier the requester has passed.
	lc.MergeTo(time.Duration(c.ReconcileNS))
	if c.Home != n.id {
		n.mu.Unlock()
		n.fatalf("lots: node %d: fetch for object %d homed at %d", n.id, id, c.Home)
	}
	if c.State == object.Invalid {
		n.mu.Unlock()
		n.fatalf("lots: node %d: serving fetch from invalid home copy of %d", n.id, id)
	}
	data := n.objData(c, &lc)
	w := wire.PooledBuffer(4 + len(data) + 4)
	w.Bytes32(data).U32(c.Ver)
	lc.Advance(n.prof.WordsCost(c.Words()))
	n.mu.Unlock()
	n.reply(*m, wire.TObjFetchReply, w.Bytes(), lc.Now())
	wire.PutSlab(w.Bytes()) // Send has copied it
	m.Release()             // read for the last time; parked, it was kept until now
	n.tr.End(stc)
	n.ph.Observe(reqEpoch, phases.FetchServe, time.Since(since))
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
	at := n.arrival(&m)
	var w wire.Buffer
	if n.store == nil {
		w.Bool(false).Bytes32([]byte("no backing store"))
	} else if err := n.store.Write(remoteKey(m.From, id), data); err != nil {
		w.Bool(false).Bytes32([]byte(err.Error()))
	} else {
		w.Bool(true).Bytes32(nil)
		at += n.prof.DiskWrite(len(data))
	}
	n.reply(m, wire.TRemoteSwapReply, w.Bytes(), at)
}

func (n *Node) serveRemoteSwapIn(m wire.Message) {
	r := wire.NewReader(m.Payload)
	id := r.U64()
	size := int(r.U32())
	if r.Err() != nil {
		n.fatalf("lots: bad remote swap-in: %v", r.Err())
	}
	at := n.arrival(&m)
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
			at += n.prof.DiskRead(size)
		}
	}
	n.reply(m, wire.TRemoteSwapReply, w.Bytes(), at)
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
