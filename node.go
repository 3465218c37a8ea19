package lots

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"
	"unsafe"

	"repro/internal/diffing"
	"repro/internal/disk"
	"repro/internal/dmm"
	"repro/internal/object"
	"repro/internal/platform"
	"repro/internal/recovery"
	"repro/internal/stats"
	"repro/internal/stats/phases"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Node is one machine of the LOTS cluster. Its application goroutine
// runs the user's SPMD function; a dispatch goroutine plays the role of
// the SIGIO handler, servicing protocol requests from peers.
//
// All node state is guarded by mu (the original runtime is a single
// thread plus signal handlers; the big lock reproduces that atomicity).
type Node struct {
	id  int
	cfg *Config
	// ep is the rank's endpoint stack under its coalescing top layer:
	// Send for single messages, Defer/Flush for bursts (callAll).
	ep  *transport.BatchingEndpoint
	ctr *stats.Counters
	// clock is the application's simulated timeline. A protocol handler
	// charges a service timeline of its own, a local that starts at the
	// request's arrival, so serving peers steals from the application
	// only what the paper's SIGIO handler does. Every function that
	// charges simulated time takes the timeline it charges; no field
	// says which one is current.
	clock *stats.SimClock
	prof  platform.Profile
	// ph records wall-clock protocol phase timings per epoch for the
	// observability surface; deliberately not the simulated clock.
	ph *phases.Ring
	// tr is the causal protocol event ring (Config.Trace). Nil when
	// tracing is off — every trace.Ring method is nil-safe, so the
	// instrumentation sites below never guard.
	tr *trace.Ring

	mu     sync.Mutex
	cond   *sync.Cond // broadcast on barrier-diff application / epoch advance
	table  *object.Table
	mapper *dmm.Mapper // nil when LargeObjectSpace is off (LOTS-x)
	store  disk.Store

	// Lock client state.
	knownVer map[uint16]uint32            // lock -> last version applied here
	scope    map[uint16][]object.ID       // lock -> known scope set, sorted
	held     []*csState                   // held critical sections, innermost last
	chains   map[object.ID]*diffing.Chain // DiffAccumulate mode histories
	// deferred holds the lock-scope diffs that arrived while an object's
	// copy was invalid, in receipt order; the fetch that validates the
	// copy replays and drops them (applyScopeDiff).
	deferred map[object.ID][]pendingDiff

	// Lock manager state, for locks this node manages (l % N == id).
	lmgr map[uint16]*lockMgr

	// Barrier client state.
	epoch   uint32
	rbEpoch uint32
	// pendingDiffs counts barrier diffs this node still expects as a
	// home in the current reconciliation; access waits on cond.
	pendingDiffs map[object.ID]int
	// dirty lists the objects this node wrote since the last barrier —
	// those with WrittenInEpoch set, appended where writeCheck sets it —
	// so the barrier's arrival costs what was written, not what exists.
	dirty []*object.Control
	// twinFree holds, by size, the twins that barriers and releases have
	// retired, epoch and section twins alike; writeCheck draws from it and
	// allocates only when it is empty, so free and live twins of a size
	// together never exceed the most that were live at once.
	twinFree map[int][][]byte
	// viewFree holds the view states of released views; makeView draws
	// from it, so opening a view allocates only while more are open at
	// once than ever before.
	viewFree []*viewState

	// Barrier manager state (node 0 only).
	bmgr *barrierMgr

	// Checkpoint/recovery state (Config.Recovery). rstore is the
	// rank's durable checkpoint store, opened on first use; ckptVers
	// remembers the data version last checkpointed per homed object so
	// unchanged objects cost no bytes; rmgr is the recovery
	// negotiation coordinator (node 0 only).
	rstore     *recovery.Store
	rstoreOnce sync.Once
	rstoreErr  error
	ckptVers   map[object.ID]uint32
	rmgr       *recoverMgr

	// mux is the request/reply layer over ep: request IDs, pending
	// calls, the dispatch loop that runs serve, and the closed flag.
	mux *transport.Mux
}

// csState tracks one held critical section.
type csState struct {
	lock     uint16
	grantVer uint32
	writes   []csWrite // sorted by object ID
}

// csWrite is an object written in a critical section, with its data at
// the section's first write to it.
type csWrite struct {
	c    *object.Control
	twin []byte
}

func newNode(id int, cfg *Config, ep *transport.BatchingEndpoint, store disk.Store,
	ctr *stats.Counters, clock *stats.SimClock, tr *trace.Ring) *Node {
	n := &Node{
		id:           id,
		cfg:          cfg,
		ep:           ep,
		ctr:          ctr,
		clock:        clock,
		tr:           tr,
		prof:         cfg.Platform,
		table:        object.NewTable(),
		store:        store,
		knownVer:     make(map[uint16]uint32),
		scope:        make(map[uint16][]object.ID),
		chains:       make(map[object.ID]*diffing.Chain),
		deferred:     make(map[object.ID][]pendingDiff),
		lmgr:         make(map[uint16]*lockMgr),
		pendingDiffs: make(map[object.ID]int),
		twinFree:     make(map[int][][]byte),
		ph:           phases.NewRing(phases.DefaultWindow),
	}
	n.mux = transport.NewMux(ep, n.serve)
	n.cond = sync.NewCond(&n.mu)
	if cfg.LargeObjectSpace {
		n.mapper = dmm.NewMapper(cfg.DMMSize, store, ctr)
		n.mapper.SetEvictPolicy(cfg.Protocol.Evict == EvictFIFO)
	}
	if id == 0 {
		n.bmgr = newBarrierMgr(cfg.Nodes)
	}
	return n
}

// ID returns the node's cluster rank.
func (n *Node) ID() int { return n.id }

// N returns the cluster size.
func (n *Node) N() int { return n.cfg.Nodes }

// Stats returns the node's counters.
func (n *Node) Stats() *stats.Counters { return n.ctr }

// Phases returns the node's wall-clock protocol phase recorder.
func (n *Node) Phases() *phases.Ring { return n.ph }

// Trace returns the node's causal protocol event ring, or nil when
// Config.Trace is off (a nil ring is a valid no-op recorder).
func (n *Node) Trace() *trace.Ring { return n.tr }

func (n *Node) close() error { return n.mux.Close() }

// fatalf aborts the application function; Cluster.Run converts the
// panic into an error. Runtime failures (disk full, protocol breakage)
// are unrecoverable mid-computation, matching the original's abort.
func (n *Node) fatalf(format string, args ...any) {
	panic(fmt.Sprintf(format, args...))
}

// ---- RPC plumbing -------------------------------------------------------

// send transmits a one-way message. at is the explicit causal
// timestamp for messages sent from a service timeline; 0 stamps the
// node's application clock.
func (n *Node) send(to int, typ wire.Type, reqID uint64, payload []byte, at time.Duration) {
	n.sendT(to, typ, reqID, payload, at, wire.TraceCtx{})
}

// sendT is send with a causal trace context stamped on the frame (the
// zero context costs zero wire bytes, so send delegates here freely).
func (n *Node) sendT(to int, typ wire.Type, reqID uint64, payload []byte, at time.Duration, tc wire.TraceCtx) {
	err := n.ep.Send(wire.Message{Type: typ, To: uint16(to), ReqID: reqID,
		SimTime: int64(at), Payload: payload, Trace: tc})
	if err != nil && !n.mux.Closed() {
		n.fatalf("lots: send %v to node %d: %v", typ, to, err)
	}
}

// arrival is m's simulated arrival here, transport.Arrival, where every
// timeline that m starts or merges into begins. It stays out of line:
// inlined, its by-value Profile and Message copies add 256 bytes to the
// frame of every handler that calls it, and the lock handlers' chain
// down to the socket send then outgrows its goroutine's stack twice
// instead of once (on a 2-CPU host, runtime.newstack went from 15 % to
// 27 % of BenchmarkLockstepEpoch's CPU).
//
//go:noinline
func (n *Node) arrival(m *wire.Message) time.Duration { return transport.Arrival(n.prof, *m) }

// rpc sends a request from the application and blocks for the
// correlated reply. The caller must NOT hold n.mu.
func (n *Node) rpc(to int, typ wire.Type, payload []byte) wire.Message {
	return n.rpcT(to, typ, payload, wire.TraceCtx{}, n.clock)
}

// rpcT is rpc on timeline clk, with a causal trace context stamped on
// the request so the serving rank can link its span to the caller's:
// the request leaves at clk's time and the reply's arrival merges into
// clk, so the whole round trip is charged there.
func (n *Node) rpcT(to int, typ wire.Type, payload []byte, tc wire.TraceCtx, clk *stats.SimClock) wire.Message {
	reply, err := n.mux.Call(wire.Message{Type: typ, To: uint16(to), SimTime: int64(clk.Now()), Payload: payload, Trace: tc})
	if err != nil {
		n.fatalf("lots: rpc %v to node %d: %v", typ, to, err)
	}
	clk.MergeTo(n.arrival(&reply))
	return reply
}

// call is one request of a callAll burst.
type call struct {
	to      int
	typ     wire.Type
	payload []byte
	tc      wire.TraceCtx
}

// callAll issues a burst of requests and blocks for every reply, in
// request order; it is the only way the runtime has more than one
// request in flight. Each reply is registered with the mux before its
// request is deferred, per-peer runs of requests pack into single
// batched datagrams/writes, one Flush ends the burst, and reply
// arrivals merge into the application clock with max, which commutes.
// Defer stamps each request with the application clock, which then
// advances by the time the sender is busy with it — the per-message
// fixed cost plus the payload's serialization at link bandwidth — so a
// burst costs its sends in series and its waits in parallel, every byte
// put on the wire is paid for, and a one-request burst costs what rpcT
// costs. The caller must NOT hold n.mu.
func (n *Node) callAll(calls []call) []wire.Message {
	acks := make([]<-chan wire.Message, len(calls))
	for i, c := range calls {
		id, ch, err := n.mux.Expect()
		if err == nil {
			err = n.ep.Defer(wire.Message{Type: c.typ, To: uint16(c.to), ReqID: id, Payload: c.payload, Trace: c.tc})
		}
		if err != nil {
			n.fatalf("lots: rpc %v to node %d: %v", c.typ, c.to, err)
		}
		acks[i] = ch
		n.clock.Advance(n.prof.NetXfer(len(c.payload)) - n.prof.NetLatency)
	}
	if err := n.ep.Flush(); err != nil {
		n.fatalf("lots: node %d: flushing %d requests: %v", n.id, len(calls), err)
	}
	replies := make([]wire.Message, len(calls))
	for i, ch := range acks {
		replies[i] = <-ch
		if replies[i].Type == wire.TInvalid {
			n.fatalf("lots: rpc %v to node %d: %v", calls[i].typ, calls[i].to, transport.ErrClosed)
		}
		n.clock.MergeTo(n.arrival(&replies[i]))
	}
	return replies
}

// reply answers a request at the given service-timeline timestamp.
func (n *Node) reply(req wire.Message, typ wire.Type, payload []byte, at time.Duration) {
	n.send(int(req.From), typ, transport.ReplyID(req.ReqID), payload, at)
}

// serve handles one protocol request; the mux runs it in its own
// goroutine per message (the SIGIO handler of the original).
func (n *Node) serve(m wire.Message) {
	switch m.Type {
	case wire.TLockReq:
		n.serveLockReq(m)
	case wire.TLockFree:
		n.serveLockFree(m)
	case wire.TLockGrant:
		// Grants normally match a pending RPC; one can arrive after a
		// node aborted. Drop it.
	case wire.TBarrierArrive:
		n.serveBarrierArrive(m)
	case wire.TBarrierDiff:
		n.serveBarrierDiff(m)
	case wire.TObjFetchReq:
		n.serveFetch(m)
	case wire.TRemoteSwapOut:
		n.serveRemoteSwapOut(m)
	case wire.TRemoteSwapIn:
		n.serveRemoteSwapIn(m)
	case wire.TCkptPut:
		n.serveCkptPut(m)
	case wire.TRehome:
		n.serveRehome(m)
	case wire.TRecoverArrive:
		n.serveRecoverArrive(m)
	case wire.TRecoverReady:
		n.serveRecoverReady(m)
	default:
		// Unknown requests are dropped; the requester's RPC would hang,
		// so this indicates a version mismatch — surface loudly.
		if !n.mux.Closed() {
			n.fatalf("lots: node %d: unexpected message %v from %d", n.id, m.Type, m.From)
		}
	}
}

// ---- Object data access -------------------------------------------------

// objData returns the object's resident data, mapping it in (possibly
// swapping others out, possibly reading the local disk) when the large
// object space is enabled, and charging a map-in to clk; with it
// disabled (LOTS-x) data lives on the Go heap permanently. Caller holds
// n.mu.
func (n *Node) objData(c *object.Control, clk *stats.SimClock) []byte {
	return n.mapData(c, false, clk)
}

// mapData is objData, except that with overwrite set, for a caller about
// to overwrite every byte, a fresh mapping is neither zeroed nor read
// back from the disk. Caller holds n.mu.
func (n *Node) mapData(c *object.Control, overwrite bool, clk *stats.SimClock) []byte {
	if n.mapper != nil {
		wasMapped := c.Mapped
		var data []byte
		var err error
		if overwrite {
			data, err = n.mapper.EnsureOverwrite(c)
		} else {
			data, err = n.mapper.Ensure(c)
		}
		if err != nil {
			n.fatalf("lots: node %d: mapping object %d: %v", n.id, c.ID, err)
		}
		if !wasMapped {
			clk.Advance(n.prof.CPU(mapInCost))
		}
		return data
	}
	if c.Heap == nil {
		c.Heap = make([]byte, c.Size)
	}
	return c.Heap
}

// largeSpaceExtra is the extra per-access CPU cost of the large object
// space support (mapping-state check + pinning timestamp), on the 2 GHz
// reference machine. The paper measures the total support overhead at
// 10-15% for access-heavy programs and <5% otherwise (§4.2).
const largeSpaceExtra = 2 // nanoseconds

// mapInCost is the CPU cost of one dynamic mapping operation (mmap
// bookkeeping, allocator search, table update) on the reference
// machine. Programs that churn objects through the DMM area (RX's
// buckets) pay it often; programs whose objects stay mapped (SOR's
// rows) barely see it — reproducing the 10-15%% vs <5%% split of §4.2.
const mapInCost = 10 * time.Microsecond

// chargeChecks accounts for the extra element accesses within a bulk
// span: the paper's C++ runtime overloads operators per element, so an
// n-element sweep performs n status checks (§4.2 counts ~1.5e9 checks
// for SOR-1024 on 4 processors). One check was already charged by
// accessCheck. Caller holds n.mu.
func (n *Node) chargeChecks(extra int) {
	if extra <= 0 {
		return
	}
	n.ctr.AccessChecks.Add(int64(extra))
	cost := n.prof.AccessCheckCost
	if n.cfg.LargeObjectSpace {
		cost += n.prof.CPU(largeSpaceExtra)
	}
	n.clock.Advance(time.Duration(int64(cost) * int64(extra)))
}

// accessCheck is the status check invoked before every shared object
// access (§3.3): a table lookup in the common case, a coherence fetch
// plus dynamic mapping otherwise. It returns the object's data, valid
// for reading. Caller holds n.mu; accessCheck may drop and retake it.
func (n *Node) accessCheck(c *object.Control) []byte {
	n.ctr.AccessChecks.Add(1)
	cost := n.prof.AccessCheckCost
	if n.cfg.LargeObjectSpace {
		cost += n.prof.CPU(largeSpaceExtra)
	}
	n.clock.Advance(cost)
	if c.State == object.Invalid {
		n.fetchObject(c, n.clock)
	}
	data := n.objData(c, n.clock)
	if n.mapper != nil {
		n.mapper.Touch(c)
	}
	return data
}

// writeCheck is accessCheck plus write detection: on the first write in
// an epoch it charges the twin and takes it where it will be read, marks
// the object dirty for the epoch and for any held lock scopes, and
// invalidates the disk copy.
// Caller holds n.mu.
func (n *Node) writeCheck(c *object.Control) []byte {
	data := n.accessCheck(c)
	c.State = object.Dirty
	if !c.WrittenInEpoch {
		c.WrittenInEpoch = true
		n.dirty = append(n.dirty, c)
		// The twin is read only by the barrier diff a non-home writer
		// ships, by update-broadcast's diffs from every writer, and by
		// version tracking; a home skips the copy otherwise. The charge
		// stays, since the simulated figures model the paper's twin.
		if c.Home != n.id || n.trackVer() || n.cfg.Protocol.Barrier == BarrierUpdateBroadcast {
			c.Twin = n.makeTwin(data)
		}
		n.clock.Advance(n.prof.WordsCost(c.Words()))
	}
	if n.mapper != nil {
		n.mapper.MarkDirty(c)
	}
	// Attribute the write to the innermost held critical section.
	if len(n.held) > 0 {
		cs := n.held[len(n.held)-1]
		i, found := slices.BinarySearchFunc(cs.writes, c.ID, func(w csWrite, id object.ID) int { return cmp.Compare(w.c.ID, id) })
		if !found {
			cs.writes = slices.Insert(cs.writes, i, csWrite{c: c, twin: n.makeTwin(data)})
			n.addScope(cs.lock, c.ID)
		}
	}
	return data
}

// makeTwin snapshots data into a twin retired by an earlier barrier or
// release if one of that size is free, else into a new one. A recycled
// twin is overwritten in full. Caller holds n.mu.
func (n *Node) makeTwin(data []byte) []byte {
	free := n.twinFree[len(data)]
	if len(free) == 0 {
		return diffing.MakeTwin(data)
	}
	twin := free[len(free)-1]
	n.twinFree[len(data)] = free[:len(free)-1]
	copy(twin, data)
	return twin
}

// viewEnter is the span entry protocol shared by the legacy Ptr
// accessors and the zero-copy View API: exactly one access check (plus
// twin creation and dirty marking for writes), then a DMM pin so the
// mapped bytes stay resident for the span's lifetime. RW entries also
// open a mutation window: fetch service for the object is deferred
// until viewExit, so peers can never receive a copy torn mid-write.
// Caller holds n.mu; the check may drop and retake it. Returns the
// object's mapped data.
func (n *Node) viewEnter(c *object.Control, rw bool) []byte {
	var data []byte
	if rw {
		data = n.writeCheck(c)
		c.RWViews++
	} else {
		data = n.accessCheck(c)
		c.ROViews++
	}
	if n.mapper != nil {
		n.mapper.Pin(c)
	}
	// Element access is one typed load or store (getElem); this is the
	// alignment it relies on, checked where the bytes are handed out.
	if uintptr(unsafe.Pointer(unsafe.SliceData(data)))&uintptr(c.Elem-1) != 0 {
		n.fatalf("lots: node %d: object %d mapped off its %d-byte element alignment", n.id, c.ID, c.Elem)
	}
	n.ctr.Views.Add(1)
	return data
}

// viewExit closes a span opened by viewEnter: the pin is dropped and
// protocol services parked on the open view are woken. Caller holds
// n.mu.
func (n *Node) viewExit(c *object.Control, rw bool) {
	if rw {
		if c.RWViews <= 0 {
			n.fatalf("lots: node %d: unbalanced RW view exit on object %d", n.id, c.ID)
		}
		c.RWViews--
	} else {
		if c.ROViews <= 0 {
			n.fatalf("lots: node %d: unbalanced read view exit on object %d", n.id, c.ID)
		}
		c.ROViews--
	}
	if c.RWViews == 0 && c.ROViews == 0 {
		n.cond.Broadcast() // wake services parked on the open-view window
	}
	if n.mapper != nil {
		n.mapper.Unpin(c)
	}
}

// addScope records obj in lock l's known scope set. Caller holds n.mu.
func (n *Node) addScope(l uint16, id object.ID) { n.scope[l] = insertID(n.scope[l], id) }

// insertID adds id to the sorted set s.
func insertID(s []object.ID, id object.ID) []object.ID {
	if i, found := slices.BinarySearch(s, id); !found {
		s = slices.Insert(s, i, id)
	}
	return s
}

// lookup resolves an object ID or aborts.
func (n *Node) lookup(id object.ID) *object.Control {
	c := n.table.Lookup(id)
	if c == nil {
		n.fatalf("lots: node %d: access to undeclared object %d", n.id, id)
	}
	return c
}

// pendingDiff is a lock-scope diff deferred on an invalid copy: the
// decoded diff, whose runs alias the grant payload it arrived in, and
// the (lock, version) it stamps.
type pendingDiff struct {
	lock uint16
	ver  uint32
	d    diffing.Diff
}

// applyScopeDiff is the one path by which a lock-scope diff — lock l's
// update at version ver — reaches an object's bytes, whether it came
// with a grant or is replayed after a fetch. On an invalid copy it defers
// d to n.deferred and reports false: the fetch that validates the copy
// replays it through here. Otherwise it copies the runs, stamps their
// words (l, ver) so this node can serve on-demand diffs itself, marks
// the mapped copy dirty and reports true. A home whose bytes moved must
// bump its data version: the acquirer's copy already matches the grant,
// so a later barrier diff may be a byte-level no-op that never bumps.
// A map-in is charged to clk. Caller holds n.mu.
func (n *Node) applyScopeDiff(c *object.Control, l uint16, ver uint32, d diffing.Diff, clk *stats.SimClock) bool {
	if d.Empty() {
		return false
	}
	if c.State == object.Invalid {
		n.deferred[c.ID] = append(n.deferred[c.ID], pendingDiff{lock: l, ver: ver, d: d})
		return false
	}
	moved, err := diffing.ApplyMoved(n.objData(c, clk), d, n.trackVer() && c.Home == n.id)
	if err != nil {
		n.fatalf("lots: node %d: applying scope diff to object %d: %v", n.id, c.ID, err)
	}
	if moved {
		c.Ver++
	}
	if n.mapper != nil {
		n.mapper.MarkDirty(c)
	}
	d.Stamp(c.EnsureStamps(), object.WordStamp{Ver: ver, Lock: l, Epoch: n.epoch})
	return true
}

// ResetClock zeroes this node's simulated clock. The harness uses it at
// phase boundaries, e.g. to exclude ME's local sorting time from the
// measured merging time as the paper does (§4.1).
func (n *Node) ResetClock() { n.clock.Reset() }

// EvictAll swaps every mapped, unpinned object out to the backing
// store. It is used by capacity experiments ("every object is swapped
// out once", §4.3) and returns the first eviction error — notably
// disk.ErrNoSpace when the backing store fills.
func (n *Node) EvictAll() error {
	if n.mapper == nil {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	var firstErr error
	n.table.ForEach(func(c *object.Control) {
		if firstErr != nil || !c.Mapped || c.Pins > 0 {
			return
		}
		if err := n.mapper.Evict(c); err != nil {
			firstErr = err
		}
	})
	return firstErr
}

// StoreUsed reports the bytes currently held by this node's backing
// store (the shared object space consumed on its local disk).
func (n *Node) StoreUsed() int64 {
	if n.store == nil {
		return 0
	}
	return n.store.Used()
}

// SimNow returns this node's current simulated clock (for phase
// measurements).
func (n *Node) SimNow() time.Duration { return n.clock.Now() }
