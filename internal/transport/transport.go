// Package transport moves protocol messages between DSM nodes.
//
// The original LOTS connects machines with dedicated point-to-point
// UDP/IP socket channels, a simple sliding-window flow control "slightly
// more efficient than TCP", and SIGIO-driven receipt (§3.6). This package
// provides three interchangeable implementations of Endpoint:
//
//   - Mem: an in-process cluster transport. Nodes are goroutine groups;
//     messages still pass through full encode → fragment → reassemble,
//     so message counts, byte counts, and the 64 KB fragmentation
//     behaviour match the wire exactly. This is the default for tests
//     and for the deterministic simulated-time harness.
//
//   - UDP: real net.UDPConn sockets with the sliding-window flow
//     control, acknowledgements, and retransmission, for running nodes
//     as separate processes.
//
//   - TCP: persistent per-peer connections with length-prefixed
//     framing, per-link sequence/acknowledgement state, and
//     reconnect-on-failure with a resume handshake, so a severed
//     connection retransmits exactly the unprocessed suffix and
//     delivers exactly once.
//
// On top of any of these, chaos.go supplies seeded fault injection at
// the layer where it means something: drop, duplication, reordering,
// delay and partitions of UDP datagrams, TCP connection kills, and —
// above mem and TCP, which already deliver exactly once in order — a
// per-link FIFO delay (see the Chaos type). A chaos-hardened cluster:
//
//	addrs, _ := transport.FreeLocalTCPAddrs(n)
//	cc := transport.DefaultChaos(seed)
//	eps := make([]transport.Endpoint, n)
//	for i := range eps {
//		eps[i], _ = transport.NewTCPEndpointOptions(i, addrs,
//			transport.TCPOptions{Chaos: &cc}) // connection killer
//	}
//	eps = transport.WrapEndpoints(eps, cc) // message-level delay
//
// Mux (mux.go) is the request/reply layer a DSM node runs on an
// Endpoint: request IDs, pending calls, reply routing, dispatch.
//
// The conformance suite (conformance_test.go here, plus the top-level
// protocol conformance matrix) certifies that all six {mem, udp, tcp}
// x {clean, chaos} cells present identical exactly-once per-link FIFO
// semantics and identical final DSM state.
//
// Transports count events; they do not advance simulated clocks. The
// receiving runtime merges its clock using Arrival.
package transport

import (
	"errors"
	"sync"
	"time"

	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Endpoint is one node's attachment to the cluster interconnect.
type Endpoint interface {
	// ID returns this node's cluster rank.
	ID() int
	// N returns the cluster size.
	N() int
	// Send transmits m to node m.To. The transport fills From. Send is
	// safe for concurrent use.
	Send(m wire.Message) error
	// Recv blocks for the next fully reassembled message. It returns
	// ok=false after Close.
	Recv() (wire.Message, bool)
	// Drain blocks until every message handed to Send so far has
	// reached its peer's transport (acknowledged, on a socket), or the
	// timeout passes. A process about to exit drains the endpoint its
	// node runs on first: its last protocol replies may still sit in a
	// wrapper's queue or a send window, and a rank that dies with them
	// undelivered strands the receiving rank forever. Every wrapper
	// empties itself and then drains inward, so no layer can hold a
	// message the closing rank forgot.
	Drain(timeout time.Duration) error
	// Close shuts the endpoint down and wakes blocked receivers.
	Close() error
}

// ErrClosed is returned by Send on a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrBadDest is returned when the destination rank is out of range.
var ErrBadDest = errors.New("transport: destination out of range")

// Arrival computes the simulated arrival time of m at its receiver:
// the sender's clock at send time plus the profile's transfer cost for
// the payload. Fragmentation overhead is charged per fragment.
func Arrival(p platform.Profile, m wire.Message) time.Duration {
	nFrags := (len(m.Payload) + wire.MaxFragPayload - 1) / wire.MaxFragPayload
	if nFrags < 1 {
		nFrags = 1
	}
	// Fixed per-fragment software cost, one wire latency (fragments
	// pipeline), and serialization of the full payload.
	d := time.Duration(nFrags-1)*p.MsgFixedCost + p.NetXfer(len(m.Payload))
	return time.Duration(m.SimTime) + d
}

// mailbox is an unbounded FIFO of messages; unbounded so that protocol
// handlers can never deadlock on transport backpressure (the real system
// relies on UDP buffering plus flow control for the same property).
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []wire.Message
	closed bool
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(m wire.Message) bool {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return false
	}
	mb.queue = append(mb.queue, m)
	mb.cond.Signal()
	return true
}

func (mb *mailbox) get() (wire.Message, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for len(mb.queue) == 0 && !mb.closed {
		mb.cond.Wait()
	}
	if len(mb.queue) == 0 {
		return wire.Message{}, false
	}
	m := mb.queue[0]
	mb.queue = mb.queue[1:]
	return m, true
}

func (mb *mailbox) close() {
	mb.mu.Lock()
	mb.closed = true
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// MemCluster is an in-process interconnect for n nodes.
type MemCluster struct {
	n        int
	prof     platform.Profile
	counters []*stats.Counters
	clocks   []*stats.SimClock
	boxes    []*mailbox
	reasms   []*lockedReasm
	eps      []*memEndpoint

	mu     sync.Mutex
	nextID uint64
	closed bool
}

// lockedReasm is one destination's persistent reassembler; the mutex
// serializes concurrent senders to that destination (message IDs are
// globally unique, so interleaving across senders is safe — each Send
// feeds all its fragments before releasing the lock anyway).
type lockedReasm struct {
	mu sync.Mutex
	r  *wire.Reassembler
}

// NewMemCluster builds an in-memory interconnect. counters and clocks
// may be nil (no accounting) or length n.
func NewMemCluster(n int, prof platform.Profile, counters []*stats.Counters, clocks []*stats.SimClock) *MemCluster {
	c := &MemCluster{n: n, prof: prof, counters: counters, clocks: clocks}
	c.boxes = make([]*mailbox, n)
	c.reasms = make([]*lockedReasm, n)
	c.eps = make([]*memEndpoint, n)
	for i := 0; i < n; i++ {
		c.boxes[i] = newMailbox()
		c.reasms[i] = &lockedReasm{r: wire.NewReassembler()}
		c.eps[i] = &memEndpoint{cluster: c, id: i}
	}
	return c
}

// Endpoint returns node i's endpoint.
func (c *MemCluster) Endpoint(i int) Endpoint { return c.eps[i] }

// Endpoints returns all endpoints in rank order.
func (c *MemCluster) Endpoints() []Endpoint {
	out := make([]Endpoint, c.n)
	for i := range c.eps {
		out[i] = c.eps[i]
	}
	return out
}

// Close shuts down the whole interconnect.
func (c *MemCluster) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	for _, b := range c.boxes {
		b.close()
	}
}

func (c *MemCluster) msgID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	return c.nextID
}

type memEndpoint struct {
	cluster *MemCluster
	id      int
}

func (e *memEndpoint) ID() int { return e.id }
func (e *memEndpoint) N() int  { return e.cluster.n }

func (e *memEndpoint) Send(m wire.Message) error {
	c := e.cluster
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if int(m.To) >= c.n {
		return ErrBadDest
	}
	m.From = uint16(e.id)
	// Stamp the sender's clock unless the caller provided an explicit
	// causal timestamp (protocol services run on their own timelines).
	if c.clocks != nil && m.SimTime == 0 {
		m.SimTime = int64(c.clocks[e.id].Now())
	}
	// Run the real fragment/reassemble path so wire behaviour (and its
	// accounting) is identical to the UDP transport. Each fragment frame
	// is pooled and released here, once the reassembler has copied it
	// (the delivered payload is an independent copy).
	if c.counters != nil {
		size := int64(wire.EncodedLen(m))
		snd := c.counters[e.id]
		snd.MsgsSent.Add(1)
		snd.FragsSent.Add(int64(wire.NumFragments(int(size))))
		snd.BytesSent.Add(size)
		rcv := c.counters[m.To]
		rcv.MsgsRecv.Add(1)
		rcv.BytesRecv.Add(size)
	}
	rs := c.reasms[m.To]
	delivered := false
	rs.mu.Lock()
	err := wire.FragmentMessage(m, c.msgID(), 0, func(f []byte) error {
		got, done, ferr := rs.r.Feed(f)
		wire.PutSlab(f)
		if ferr != nil {
			return ferr
		}
		if done {
			delivered = true
			if !c.boxes[m.To].put(got) {
				return ErrClosed
			}
		}
		return nil
	})
	rs.mu.Unlock()
	if err != nil {
		return err
	}
	if !delivered {
		return errors.New("transport: message did not reassemble")
	}
	return nil
}

func (e *memEndpoint) Recv() (wire.Message, bool) {
	return e.cluster.boxes[e.id].get()
}

// Drain has nothing to wait for: Send delivers before it returns.
func (e *memEndpoint) Drain(time.Duration) error { return nil }

func (e *memEndpoint) Close() error {
	e.cluster.boxes[e.id].close()
	return nil
}
