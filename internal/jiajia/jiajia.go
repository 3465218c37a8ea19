// Package jiajia is a from-scratch reimplementation of the comparison
// system used in the LOTS paper's evaluation: JIAJIA V1.1, a page-based
// software DSM using Scope Consistency with a home-based,
// write-invalidate coherence protocol (Hu, Shi and Tang, HPCN'99).
//
// Differences from LOTS that drive the Figure-8 results:
//
//   - Granularity is a fixed page (4 KB): unrelated data sharing a page
//     causes false sharing — extra faults, diffs and page transfers.
//   - Homes are fixed, assigned round-robin over pages; even a sole
//     writer must ship diffs to the (possibly remote) home, and every
//     reader must fetch from it.
//   - All shared memory is mapped at the same addresses in every
//     process, so the shared space is bounded by the process space (the
//     limitation that motivates LOTS; JIAJIA's default cap was 128 MB).
//
// The original uses SIGSEGV page faults; here every access goes through
// an explicit page-state check that counts a simulated fault when the
// page is missing or write-protected, preserving the fault economics.
package jiajia

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/diffing"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/wire"
)

// PageSize is the sharing granularity.
const PageSize = 4096

// DefaultMaxShared is JIAJIA V1.1's default shared-memory bound: the
// paper notes JIAJIA "only allows a maximum of 128 MB of shared memory".
const DefaultMaxShared = 128 << 20

// Config describes a JIAJIA cluster.
type Config struct {
	Nodes     int
	Platform  platform.Profile
	MaxShared int // bytes of shared heap; default 128 MB
	MaxLocks  int
}

// Cluster is a running JIAJIA cluster.
type Cluster struct {
	cfg      Config
	mem      *transport.MemCluster
	nodes    []*Node
	counters []*stats.Counters
	clocks   []*stats.SimClock
	once     sync.Once
}

// NewCluster builds a JIAJIA cluster over the in-memory transport.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 || cfg.Nodes > 256 {
		return nil, fmt.Errorf("jiajia: Nodes = %d, want 1..256", cfg.Nodes)
	}
	if cfg.MaxShared == 0 {
		cfg.MaxShared = DefaultMaxShared
	}
	if cfg.MaxLocks == 0 {
		cfg.MaxLocks = 1024
	}
	if cfg.Platform.Name == "" {
		cfg.Platform = platform.Test()
	}
	c := &Cluster{cfg: cfg}
	c.counters = make([]*stats.Counters, cfg.Nodes)
	c.clocks = make([]*stats.SimClock, cfg.Nodes)
	for i := range c.counters {
		c.counters[i] = &stats.Counters{}
		c.clocks[i] = &stats.SimClock{}
	}
	c.mem = transport.NewMemCluster(cfg.Nodes, cfg.Platform, c.counters, c.clocks)
	c.nodes = make([]*Node, cfg.Nodes)
	for i := range c.nodes {
		c.nodes[i] = newNode(i, &c.cfg, c.mem.Endpoint(i), c.counters[i], c.clocks[i])
	}
	for _, n := range c.nodes {
		go n.mux.Serve()
	}
	return c, nil
}

// Run executes fn SPMD-style on every node.
func (c *Cluster) Run(fn func(n *Node)) error {
	errs := make([]error, c.cfg.Nodes)
	var wg sync.WaitGroup
	for i := range c.nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("jiajia: node %d: %v", i, r)
				}
			}()
			fn(c.nodes[i])
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Snapshots returns per-node counters.
func (c *Cluster) Snapshots() []stats.Snapshot {
	out := make([]stats.Snapshot, len(c.counters))
	for i, ctr := range c.counters {
		out[i] = ctr.Snap()
	}
	return out
}

// Total aggregates counters across nodes.
func (c *Cluster) Total() stats.Snapshot {
	var t stats.Snapshot
	for _, s := range c.Snapshots() {
		t = t.Add(s)
	}
	return t
}

// SimTime returns the cluster's simulated execution time.
func (c *Cluster) SimTime() time.Duration {
	ts := make([]time.Duration, len(c.clocks))
	for i, clk := range c.clocks {
		ts[i] = clk.Now()
	}
	return stats.MaxOf(ts...)
}

// ResetClocks zeroes the simulated clocks.
func (c *Cluster) ResetClocks() {
	for _, clk := range c.clocks {
		clk.Reset()
	}
}

// Close shuts the cluster down. It reports any transport teardown
// error (idempotent: only the first call does the work).
func (c *Cluster) Close() error {
	var errs []error
	c.once.Do(func() {
		c.mem.Close()
		for _, n := range c.nodes {
			if err := n.mux.Close(); err != nil {
				errs = append(errs, err)
			}
		}
	})
	return errors.Join(errs...)
}

// pageState is a node's view of one page.
type pageState uint8

const (
	pInvalid pageState = iota // not cached (or invalidated)
	pClean                    // cached read-only
	pDirty                    // cached, twinned, locally modified
)

type page struct {
	state pageState
	data  []byte
	twin  []byte
	// applyTime is the simulated time of the last diff applied to this
	// page at its home; served copies cannot predate it.
	applyTime time.Duration
}

// lockMgrState is the per-lock manager bookkeeping (home-based ScC:
// write notices live at the manager, data lives at page homes).
type lockMgrState struct {
	held      bool
	holder    int
	ver       uint32
	lastWrite map[uint32]uint32 // page -> version of last write under this lock
	queue     []wire.Message
}

// Node is one machine of the JIAJIA cluster.
type Node struct {
	id    int
	cfg   *Config
	ep    transport.Endpoint
	ctr   *stats.Counters
	clock *stats.SimClock
	prof  platform.Profile

	mu    sync.Mutex
	heap  int // bytes allocated so far (same on all nodes, SPMD allocs)
	pages map[uint32]*page
	// homeOverride records pages allocated with an explicit starthome
	// (JIAJIA V1.1's jia_alloc lets the program place a block's home).
	homeOverride map[uint32]uint16

	knownVer         map[uint16]uint32
	heldLocks        map[uint16]map[uint32]bool // lock -> pages written in CS
	epochWrites      map[uint32]bool            // pages written since last barrier
	lmgr             map[uint16]*lockMgrState
	barrierMsgs      []wire.Message // node 0: collected arrivals
	barrierMaxArrive time.Duration
	barrierPages     map[uint32]map[int]bool

	mux *transport.Mux // request/reply layer over ep, shared with lots.Node
}

func newNode(id int, cfg *Config, ep transport.Endpoint, ctr *stats.Counters, clk *stats.SimClock) *Node {
	n := &Node{
		id:           id,
		cfg:          cfg,
		ep:           ep,
		ctr:          ctr,
		clock:        clk,
		prof:         cfg.Platform,
		pages:        make(map[uint32]*page),
		knownVer:     make(map[uint16]uint32),
		heldLocks:    make(map[uint16]map[uint32]bool),
		epochWrites:  make(map[uint32]bool),
		lmgr:         make(map[uint16]*lockMgrState),
		barrierPages: make(map[uint32]map[int]bool),
		homeOverride: make(map[uint32]uint16),
	}
	n.mux = transport.NewMux(ep, n.serve)
	return n
}

// ID returns the node rank; N the cluster size.
func (n *Node) ID() int { return n.id }

// N returns the cluster size.
func (n *Node) N() int { return n.cfg.Nodes }

func (n *Node) fatalf(format string, args ...any) {
	panic(fmt.Sprintf(format, args...))
}

// homeOf implements JIAJIA's round-robin home allocation on pages,
// honouring explicit starthome placement from AllocHomed.
func (n *Node) homeOf(pg uint32) int {
	if h, ok := n.homeOverride[pg]; ok {
		return int(h)
	}
	return int(pg) % n.cfg.Nodes
}

// Alloc reserves size bytes of shared memory and returns its address.
// Collective: every node allocates in the same order, so addresses
// agree. Allocations are page-aligned (JIAJIA's jia_alloc semantics).
func (n *Node) Alloc(size int) int {
	if size <= 0 {
		n.fatalf("jiajia: Alloc(%d)", size)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	addr := n.heap
	pages := (size + PageSize - 1) / PageSize
	n.heap += pages * PageSize
	if n.heap > n.cfg.MaxShared {
		n.fatalf("jiajia: shared memory exhausted: %d > %d bytes — JIAJIA cannot exceed its shared space (the limitation motivating LOTS)",
			n.heap, n.cfg.MaxShared)
	}
	return addr
}

// AllocHomed is jia_alloc with an explicit starthome: the block's pages
// are homed at the given node instead of round-robin. JIAJIA programs
// use this to place data at its principal accessor.
func (n *Node) AllocHomed(size, home int) int {
	if home < 0 || home >= n.cfg.Nodes {
		n.fatalf("jiajia: AllocHomed home %d out of range", home)
	}
	addr := n.Alloc(size)
	n.mu.Lock()
	for pg := uint32(addr / PageSize); pg <= uint32((addr+size-1)/PageSize); pg++ {
		n.homeOverride[pg] = uint16(home)
	}
	n.mu.Unlock()
	return addr
}

// AllocCompact reserves size bytes WITHOUT page alignment, packing
// consecutive allocations into shared pages. This reproduces laying out
// application data structures (e.g. matrix rows) contiguously, which is
// where false sharing comes from.
func (n *Node) AllocCompact(size int) int {
	if size <= 0 {
		n.fatalf("jiajia: AllocCompact(%d)", size)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	// 8-byte alignment keeps scalar accesses inside one page.
	addr := (n.heap + 7) &^ 7
	n.heap = addr + size
	if n.heap > n.cfg.MaxShared {
		n.fatalf("jiajia: shared memory exhausted: %d > %d bytes", n.heap, n.cfg.MaxShared)
	}
	return addr
}

// pageFor returns the local page holding addr, faulting it in (from the
// home) if needed; forWrite additionally twins it (write fault).
// Caller holds n.mu; the lock may be dropped and retaken around the
// fetch RPC.
func (n *Node) pageFor(addr int, forWrite bool) *page {
	if addr < 0 || addr >= n.heap {
		n.fatalf("jiajia: node %d: access at %d outside shared heap [0,%d)", n.id, addr, n.heap)
	}
	pg := uint32(addr / PageSize)
	p := n.pages[pg]
	if p == nil {
		p = &page{}
		n.pages[pg] = p
	}
	if p.state == pInvalid {
		n.ctr.PageFaults.Add(1)
		n.clock.Advance(n.prof.CPU(4 * time.Microsecond)) // SIGSEGV + handler entry
		if n.homeOf(pg) == n.id {
			// Home pages materialize locally (zero-filled on first use).
			if p.data == nil {
				p.data = make([]byte, PageSize)
			}
			p.state = pClean
		} else {
			n.fetchPage(pg, p)
		}
	}
	if forWrite && p.state != pDirty {
		n.ctr.PageFaults.Add(1) // write-protection fault
		n.clock.Advance(n.prof.CPU(4 * time.Microsecond))
		p.twin = diffing.MakeTwin(p.data)
		n.clock.Advance(n.prof.WordsCost(PageSize / 4))
		p.state = pDirty
		n.epochWrites[pg] = true
		// Attribute to every held critical section (JIAJIA associates
		// write notices with the interval, which is bounded by locks).
		for _, ws := range n.heldLocks {
			ws[pg] = true
		}
	}
	return p
}

// fetchPage brings a clean copy from the home. Caller holds n.mu.
func (n *Node) fetchPage(pg uint32, p *page) {
	n.mu.Unlock()
	var w wire.Buffer
	w.U32(pg)
	reply := n.rpc(n.homeOf(pg), wire.TJPageReq, w.Bytes())
	n.mu.Lock()
	if reply.Type != wire.TJPageReply {
		n.fatalf("jiajia: node %d: page %d fetch: %v", n.id, pg, reply.Type)
	}
	r := wire.NewReader(reply.Payload)
	data := r.Bytes32()
	if r.Err() != nil || len(data) != PageSize {
		n.fatalf("jiajia: node %d: page %d fetch: bad payload", n.id, pg)
	}
	p.data = data
	p.state = pClean
	n.ctr.ObjFetches.Add(1)
}

// ---- typed accessors ------------------------------------------------------

// ReadI32 loads the int32 at addr.
func (n *Node) ReadI32(addr int) int32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	p := n.pageFor(addr, false)
	return int32(binary.LittleEndian.Uint32(p.data[addr%PageSize:]))
}

// WriteI32 stores v at addr.
func (n *Node) WriteI32(addr int, v int32) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p := n.pageFor(addr, true)
	binary.LittleEndian.PutUint32(p.data[addr%PageSize:], uint32(v))
}

// ReadF64 loads the float64 at addr. addr must not straddle a page.
func (n *Node) ReadF64(addr int) float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	p := n.pageFor(addr, false)
	return math.Float64frombits(binary.LittleEndian.Uint64(p.data[addr%PageSize:]))
}

// WriteF64 stores v at addr.
func (n *Node) WriteF64(addr int, v float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p := n.pageFor(addr, true)
	binary.LittleEndian.PutUint64(p.data[addr%PageSize:], math.Float64bits(v))
}

// ReadBytes copies length bytes starting at addr (may span pages).
func (n *Node) ReadBytes(addr, length int) []byte {
	out := make([]byte, 0, length)
	n.mu.Lock()
	defer n.mu.Unlock()
	for length > 0 {
		p := n.pageFor(addr, false)
		off := addr % PageSize
		take := PageSize - off
		if take > length {
			take = length
		}
		out = append(out, p.data[off:off+take]...)
		addr += take
		length -= take
	}
	return out
}

// WriteBytes stores b starting at addr (may span pages).
func (n *Node) WriteBytes(addr int, b []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for len(b) > 0 {
		p := n.pageFor(addr, true)
		off := addr % PageSize
		take := PageSize - off
		if take > len(b) {
			take = len(b)
		}
		copy(p.data[off:off+take], b[:take])
		addr += take
		b = b[take:]
	}
}

// ---- synchronization ------------------------------------------------------

// Acquire enters the critical section of lock l. The manager's grant
// carries write notices; pages written under l since this node's last
// view are invalidated (home-based write-invalidate under ScC).
func (n *Node) Acquire(l int) {
	lk := uint16(l)
	n.mu.Lock()
	if _, dup := n.heldLocks[lk]; dup {
		n.mu.Unlock()
		n.fatalf("jiajia: node %d: lock %d acquired twice", n.id, l)
	}
	known := n.knownVer[lk]
	n.mu.Unlock()
	n.ctr.LockAcquires.Add(1)
	var w wire.Buffer
	w.U16(lk).U32(known)
	reply := n.rpc(int(lk)%n.cfg.Nodes, wire.TLockReq, w.Bytes())
	if reply.Type != wire.TLockGrant {
		n.fatalf("jiajia: node %d: lock grant: %v", n.id, reply.Type)
	}
	r := wire.NewReader(reply.Payload)
	ver := r.U32()
	cnt := int(r.U32())
	n.mu.Lock()
	for i := 0; i < cnt; i++ {
		pg := r.U32()
		if n.homeOf(pg) == n.id {
			continue
		}
		if p := n.pages[pg]; p != nil && p.state != pInvalid {
			p.state = pInvalid
			p.data = nil
			p.twin = nil
			n.ctr.Invalidations.Add(1)
		}
	}
	if r.Err() != nil {
		n.mu.Unlock()
		n.fatalf("jiajia: node %d: bad grant: %v", n.id, r.Err())
	}
	if ver > n.knownVer[lk] {
		n.knownVer[lk] = ver
	}
	n.heldLocks[lk] = make(map[uint32]bool)
	n.mu.Unlock()
}

// Release flushes the critical section's page diffs to their homes,
// then notifies the lock manager (which records the write notices).
func (n *Node) Release(l int) {
	lk := uint16(l)
	n.mu.Lock()
	ws := n.heldLocks[lk]
	if ws == nil {
		n.mu.Unlock()
		n.fatalf("jiajia: node %d: release of lock %d not held", n.id, l)
	}
	delete(n.heldLocks, lk)
	pgs := make([]uint32, 0, len(ws))
	for pg := range ws {
		pgs = append(pgs, pg)
	}
	sort.Slice(pgs, func(i, j int) bool { return pgs[i] < pgs[j] })
	n.mu.Unlock()

	n.flushPages(pgs)

	var w wire.Buffer
	w.U16(lk).U32(uint32(len(pgs)))
	for _, pg := range pgs {
		w.U32(pg)
	}
	n.send(int(lk)%n.cfg.Nodes, wire.TLockFree, 0, w.Bytes(), 0)
}

// flushPages sends each dirty page's diff to its home and downgrades
// the local copy to clean (keeping it cached, per JIAJIA).
func (n *Node) flushPages(pgs []uint32) {
	for _, pg := range pgs {
		n.mu.Lock()
		p := n.pages[pg]
		if p == nil || p.state != pDirty {
			n.mu.Unlock()
			continue
		}
		d := diffing.Compute(p.data, p.twin)
		p.twin = nil
		p.state = pClean
		home := n.homeOf(pg)
		n.clock.Advance(n.prof.WordsCost(PageSize / 4))
		n.mu.Unlock()
		if home == n.id {
			continue // home writes in place
		}
		if d.Empty() {
			continue
		}
		n.ctr.DiffsMade.Add(1)
		n.ctr.DiffBytes.Add(int64(d.Bytes()))
		var w wire.Buffer
		w.U32(pg)
		d.Encode(&w)
		if reply := n.rpc(home, wire.TJDiff, w.Bytes()); reply.Type != wire.TJDiffAck {
			n.fatalf("jiajia: node %d: diff to home of page %d rejected", n.id, pg)
		}
	}
}

// Barrier flushes all dirty pages to their homes, exchanges write
// notices through the barrier manager (node 0), and invalidates every
// cached non-home copy of a written page.
func (n *Node) Barrier() {
	n.ctr.Barriers.Add(1)
	n.mu.Lock()
	if len(n.heldLocks) != 0 {
		n.mu.Unlock()
		n.fatalf("jiajia: node %d: barrier inside critical section", n.id)
	}
	dirty := make([]uint32, 0, len(n.epochWrites))
	for pg := range n.epochWrites {
		dirty = append(dirty, pg)
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
	n.epochWrites = make(map[uint32]bool)
	n.mu.Unlock()

	n.flushPages(dirty)

	var w wire.Buffer
	w.U32(uint32(len(dirty)))
	for _, pg := range dirty {
		w.U32(pg)
	}
	reply := n.rpc(0, wire.TBarrierArrive, w.Bytes())
	if reply.Type != wire.TBarrierExit {
		n.fatalf("jiajia: node %d: barrier exit: %v", n.id, reply.Type)
	}
	r := wire.NewReader(reply.Payload)
	cnt := int(r.U32())
	n.mu.Lock()
	for i := 0; i < cnt; i++ {
		pg := r.U32()
		if n.homeOf(pg) == n.id {
			continue
		}
		if p := n.pages[pg]; p != nil && p.state != pInvalid {
			p.state = pInvalid
			p.data = nil
			p.twin = nil
			n.ctr.Invalidations.Add(1)
		}
	}
	n.mu.Unlock()
	if r.Err() != nil {
		n.fatalf("jiajia: node %d: bad barrier exit: %v", n.id, r.Err())
	}
}

// ---- message service ------------------------------------------------------

func (n *Node) send(to int, typ wire.Type, reqID uint64, payload []byte, at time.Duration) {
	err := n.ep.Send(wire.Message{Type: typ, To: uint16(to), ReqID: reqID,
		SimTime: int64(at), Payload: payload})
	if err != nil && !n.mux.Closed() {
		n.fatalf("jiajia: send %v to %d: %v", typ, to, err)
	}
}

// svcClock builds a service timeline starting at m's causal arrival, so
// serving a peer's request does not disturb this node's application
// clock (the SIGSEGV/SIGIO handlers of the original steal microseconds,
// not the whole arrival gap).
func (n *Node) svcClock(m wire.Message) *stats.SimClock {
	c := &stats.SimClock{}
	c.MergeTo(transport.Arrival(n.prof, m))
	return c
}

func (n *Node) rpc(to int, typ wire.Type, payload []byte) wire.Message {
	reply, err := n.mux.Call(wire.Message{Type: typ, To: uint16(to), Payload: payload})
	if err != nil {
		n.fatalf("jiajia: rpc %v to %d: %v", typ, to, err)
	}
	n.clock.MergeTo(transport.Arrival(n.prof, reply))
	return reply
}

func (n *Node) reply(req wire.Message, typ wire.Type, payload []byte, at time.Duration) {
	n.send(int(req.From), typ, transport.ReplyID(req.ReqID), payload, at)
}

func (n *Node) serve(m wire.Message) {
	switch m.Type {
	case wire.TJPageReq:
		n.serveJPageReq(m)
	case wire.TJDiff:
		n.serveJDiff(m)
	case wire.TLockReq:
		n.serveLockReq(m)
	case wire.TLockFree:
		n.serveLockFree(m)
	case wire.TBarrierArrive:
		n.serveBarrierArrive(m)
	default:
		if !n.mux.Closed() {
			n.fatalf("jiajia: node %d: unexpected %v from %d", n.id, m.Type, m.From)
		}
	}
}

func (n *Node) serveJPageReq(m wire.Message) {
	r := wire.NewReader(m.Payload)
	pg := r.U32()
	if r.Err() != nil {
		n.fatalf("jiajia: bad page request: %v", r.Err())
	}
	n.mu.Lock()
	if n.homeOf(pg) != n.id {
		n.mu.Unlock()
		n.fatalf("jiajia: node %d: page %d request but home is %d", n.id, pg, n.homeOf(pg))
	}
	p := n.pages[pg]
	if p == nil {
		p = &page{}
		n.pages[pg] = p
	}
	if p.data == nil {
		p.data = make([]byte, PageSize)
		p.state = pClean
	}
	var w wire.Buffer
	w.Bytes32(p.data)
	lc := n.svcClock(m)
	lc.MergeTo(p.applyTime)
	lc.Advance(n.prof.WordsCost(PageSize / 4))
	n.mu.Unlock()
	n.reply(m, wire.TJPageReply, w.Bytes(), lc.Now())
}

func (n *Node) serveJDiff(m wire.Message) {
	r := wire.NewReader(m.Payload)
	pg := r.U32()
	d, err := diffing.DecodeDiff(r)
	if err != nil {
		n.fatalf("jiajia: bad diff: %v", err)
	}
	n.mu.Lock()
	p := n.pages[pg]
	if p == nil {
		p = &page{}
		n.pages[pg] = p
	}
	if p.data == nil {
		p.data = make([]byte, PageSize)
		p.state = pClean
	}
	if err := diffing.Apply(p.data, d); err != nil {
		n.mu.Unlock()
		n.fatalf("jiajia: node %d: applying diff to page %d: %v", n.id, pg, err)
	}
	lc := n.svcClock(m)
	lc.Advance(n.prof.WordsCost(d.Bytes() / 4))
	if lc.Now() > p.applyTime {
		p.applyTime = lc.Now()
	}
	n.mu.Unlock()
	n.reply(m, wire.TJDiffAck, nil, lc.Now())
}

func (n *Node) lockMgrStateFor(lk uint16) *lockMgrState {
	mg := n.lmgr[lk]
	if mg == nil {
		mg = &lockMgrState{lastWrite: make(map[uint32]uint32)}
		n.lmgr[lk] = mg
	}
	return mg
}

func (n *Node) serveLockReq(m wire.Message) {
	r := wire.NewReader(m.Payload)
	lk := r.U16()
	known := r.U32()
	if r.Err() != nil {
		n.fatalf("jiajia: bad lock request: %v", r.Err())
	}
	lc := n.svcClock(m)
	n.mu.Lock()
	mg := n.lockMgrStateFor(lk)
	if mg.held {
		mg.queue = append(mg.queue, m)
		n.mu.Unlock()
		return
	}
	mg.held = true
	mg.holder = int(m.From)
	payload := grantPayload(mg, known)
	n.mu.Unlock()
	n.reply(m, wire.TLockGrant, payload, lc.Now())
}

// grantPayload builds the write-notice grant: every page written under
// the lock since the requester's last view.
func grantPayload(mg *lockMgrState, known uint32) []byte {
	var pgs []uint32
	for pg, v := range mg.lastWrite {
		if v > known {
			pgs = append(pgs, pg)
		}
	}
	sort.Slice(pgs, func(i, j int) bool { return pgs[i] < pgs[j] })
	var w wire.Buffer
	w.U32(mg.ver).U32(uint32(len(pgs)))
	for _, pg := range pgs {
		w.U32(pg)
	}
	return w.Bytes()
}

func (n *Node) serveLockFree(m wire.Message) {
	r := wire.NewReader(m.Payload)
	lk := r.U16()
	cnt := int(r.U32())
	pgs := make([]uint32, 0, cnt)
	for i := 0; i < cnt; i++ {
		pgs = append(pgs, r.U32())
	}
	if r.Err() != nil {
		n.fatalf("jiajia: bad lock free: %v", r.Err())
	}
	n.mu.Lock()
	mg := n.lockMgrStateFor(lk)
	if !mg.held || mg.holder != int(m.From) {
		n.mu.Unlock()
		n.fatalf("jiajia: node %d: lock %d freed by non-holder %d", n.id, lk, m.From)
	}
	if len(pgs) > 0 {
		mg.ver++
		for _, pg := range pgs {
			mg.lastWrite[pg] = mg.ver
		}
	}
	mg.held = false
	if len(mg.queue) == 0 {
		n.mu.Unlock()
		return
	}
	next := mg.queue[0]
	mg.queue = mg.queue[1:]
	mg.held = true
	mg.holder = int(next.From)
	known := wire.NewReader(next.Payload)
	_ = known.U16()
	payload := grantPayload(mg, known.U32())
	n.mu.Unlock()
	lc := n.svcClock(m)
	lc.MergeTo(transport.Arrival(n.prof, next))
	n.reply(next, wire.TLockGrant, payload, lc.Now())
}

func (n *Node) serveBarrierArrive(m wire.Message) {
	r := wire.NewReader(m.Payload)
	cnt := int(r.U32())
	pgs := make([]uint32, 0, cnt)
	for i := 0; i < cnt; i++ {
		pgs = append(pgs, r.U32())
	}
	if r.Err() != nil {
		n.fatalf("jiajia: bad barrier arrival: %v", r.Err())
	}
	arr := transport.Arrival(n.prof, m)
	n.mu.Lock()
	if arr > n.barrierMaxArrive {
		n.barrierMaxArrive = arr
	}
	from := int(m.From)
	for _, pg := range pgs {
		ws := n.barrierPages[pg]
		if ws == nil {
			ws = make(map[int]bool)
			n.barrierPages[pg] = ws
		}
		ws[from] = true
	}
	n.barrierMsgs = append(n.barrierMsgs, m)
	if len(n.barrierMsgs) < n.cfg.Nodes {
		n.mu.Unlock()
		return
	}
	all := make([]uint32, 0, len(n.barrierPages))
	for pg, writers := range n.barrierPages {
		all = append(all, pg)
		if len(writers) > 1 {
			// Two or more writers of one page in one interval: the
			// write-write false sharing the paper describes for LU.
			n.ctr.FalseShares.Add(int64(len(writers) - 1))
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	msgs := n.barrierMsgs
	exitAt := n.barrierMaxArrive
	n.barrierMsgs = nil
	n.barrierMaxArrive = 0
	n.barrierPages = make(map[uint32]map[int]bool)
	n.mu.Unlock()
	var w wire.Buffer
	w.U32(uint32(len(all)))
	for _, pg := range all {
		w.U32(pg)
	}
	payload := w.Bytes()
	for _, am := range msgs {
		n.reply(am, wire.TBarrierExit, payload, exitAt)
	}
}

// ResetClock zeroes this node's simulated clock (phase-boundary
// measurement, mirroring lots.Node.ResetClock).
func (n *Node) ResetClock() { n.clock.Reset() }

// SimNow returns this node's current simulated clock.
func (n *Node) SimNow() time.Duration { return n.clock.Now() }
