package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/stats"
	"repro/internal/wire"
)

// UDP transport: real sockets, point-to-point channels, and a sliding-
// window flow control — the paper's "simple flow control algorithm,
// slightly more efficient than that of the TCP protocol" (§3.6).
//
// A channel admits a fragment under two limits. The fragment window
// (defaultWindow fragments) bounds the receiver's out-of-order buffer
// and the span the SACK bitmap must cover. The byte window bounds what sits in
// the peer's socket buffer: at bind every endpoint sizes its receive
// buffer for rcvbufDatagrams datagrams per sender, reads back what the
// kernel granted and advertises each sender's share in every ack, and a
// sender keeps no more than that many bytes unacknowledged. Without it
// a burst of 64 KiB fragments overruns the buffer and the kernel drops
// the tail, which only a retransmission timer recovers.
//
// Retransmission: each channel measures round-trip times and maintains
// a Jacobson/Karels SRTT/RTTVAR estimate feeding an adaptive
// retransmission timeout, with Karn's rule (retransmitted frames never
// produce RTT samples) and exponential backoff while losses persist.
// Acknowledgement frames carry a selective-acknowledgement bitmap over
// the receive window, so a timeout retransmits only the fragments the
// receiver is actually missing, and three duplicate cumulative acks
// trigger an immediate fast retransmit of the first hole without
// waiting for the clock.

const (
	frameData = 1
	frameAck  = 2

	// flowHeaderLen: kind(1) + src(2) + seq(4) + ack(4). Ack frames
	// additionally carry a sackLen-byte selective-ack bitmap and the
	// shareLen-byte byte window the receiver grants this sender.
	flowHeaderLen = 11

	// sackBits is the width of the selective-ack bitmap: bit i of an
	// ack frame's bitmap reports receipt of sequence ack+1+i. A window
	// wider than sackBits still works — SACK information is advisory
	// and simply does not cover the window's tail.
	sackBits = 64
	sackLen  = 8
	shareLen = 4
	ackLen   = flowHeaderLen + sackLen + shareLen

	// rcvbufDatagrams is how many full datagrams per sender the receive
	// buffer is sized for: one being written by the sender, one being
	// copied by the kernel, one being read, one spare. Deeper queues buy
	// nothing on a link this short and push queueing delay past the RTO
	// floor.
	rcvbufDatagrams = 4

	// defaultWindow is the default number of unacknowledged fragments
	// allowed in flight per peer channel.
	defaultWindow = 32

	// defaultRTO is the initial retransmission timeout, before any RTT
	// sample has been taken. Under injected faults it is chaosRTO, so
	// injected losses heal within test budgets.
	defaultRTO = 50 * time.Millisecond
	chaosRTO   = 15 * time.Millisecond

	// defaultMinRTO / defaultMaxRTO clamp the adaptive RTO: the floor
	// keeps sub-millisecond loopback RTTs from retransmitting into
	// ordinary scheduling jitter; the ceiling keeps the Karn backoff
	// from stranding a channel behind a transient partition.
	defaultMinRTO = 2 * time.Millisecond
	defaultMaxRTO = 500 * time.Millisecond

	// dupAckThreshold duplicate cumulative acks trigger fast retransmit.
	dupAckThreshold = 3

	// maxRetries bounds retransmission rounds without progress before
	// the channel is declared broken.
	maxRetries = 100

	// readErrBackoffMax caps the sleep between failing socket reads.
	readErrBackoffMax = 100 * time.Millisecond
)

// UDPOptions tunes a UDPEndpoint beyond the common case.
type UDPOptions struct {
	// Counters may be nil (no accounting).
	Counters *stats.Counters
	// Chaos, when non-nil, mangles outgoing datagrams (drop,
	// duplication, reordering, delay, transient partitions) before they
	// reach the socket; the sliding-window machinery must recover. It
	// also shortens the initial retransmission timeout to chaosRTO.
	Chaos *Chaos
	// OnRetransmit, when non-nil, is invoked with the fragment count
	// each time the endpoint resends (fast retransmit or timeout). It
	// runs on the receive/timer goroutines and must not block.
	OnRetransmit func(frags int)

	// Overrides, for this package's tests only; 0 means the default.
	// rto is the initial retransmission timeout, until measured RTTs
	// take over; minRTO / maxRTO clamp the adaptive one; window is the
	// per-channel in-flight fragment budget, which also bounds the
	// receiver's out-of-order buffer.
	rto, minRTO, maxRTO time.Duration
	window              int
}

// UDPEndpoint is a node's attachment over real UDP sockets.
type UDPEndpoint struct {
	id int
	n  int
	// peers holds the resolved peer addresses once they are known. With
	// NewUDPEndpointOptions they are fixed at construction; with
	// NewUDPEndpointDeferred the endpoint binds first (so a launcher can
	// collect its ephemeral address) and SetPeers wires them later.
	// Until then outgoing frames are dropped — the sliding window keeps
	// them in flight and retransmission heals the gap.
	peers    atomic.Pointer[[]*net.UDPAddr]
	conn     *net.UDPConn
	counters *stats.Counters
	rto      time.Duration // initial RTO, until the first RTT sample
	minRTO   time.Duration
	maxRTO   time.Duration
	window   uint32
	chaos    *packetChaos // nil = faithful network
	// onRetransmit, when non-nil, observes every resend (fragment
	// count); used by the trace subsystem to record retransmit events.
	onRetransmit func(frags int)
	// share is the byte window advertised to each sender in every ack:
	// this socket's granted receive buffer split between the peers.
	share atomic.Uint32

	inbox *mailbox

	// readErrs counts failed socket reads; tests assert the read loop
	// backs off instead of busy-spinning on a persistently failing
	// socket.
	readErrs atomic.Int64
	// readDone is closed when readLoop exits.
	readDone chan struct{}

	// inFlight counts un-acked frames across all channels; the
	// retransmission loop drops to a slow idle cadence (and skips the
	// per-channel scan entirely) while it is zero.
	inFlight atomic.Int64
	// retransKick wakes the retransmission loop promptly when the
	// endpoint transitions idle -> busy.
	retransKick chan struct{}

	mu      sync.Mutex
	nextMsg uint64
	sendsts []*sendState
	recvsts []*recvState
	closed  bool
	done    chan struct{}
}

// flight is one unacknowledged data frame. The frame buffer comes from
// the wire slab pool and is shared between the window table and any
// in-progress socket write (initial send, timeout retransmit, fast
// retransmit — all of which write outside the channel lock while an
// ack may concurrently release the table's reference), so its release
// is reference-counted: the table holds one reference until the frame
// is acked or the channel breaks, and every writer holds one for the
// duration of its write.
type flight struct {
	frame  []byte
	sentAt time.Time
	// retx marks frames transmitted more than once; Karn's rule
	// excludes them from RTT sampling (the ack is ambiguous).
	retx bool
	refs atomic.Int32
}

func newFlight(frame []byte) *flight {
	fl := &flight{frame: frame, sentAt: time.Now()}
	fl.refs.Store(1) // the window table's reference
	return fl
}

func (fl *flight) acquire() { fl.refs.Add(1) }

func (fl *flight) release() {
	if fl.refs.Add(-1) == 0 {
		wire.PutSlab(fl.frame)
	}
}

type sendState struct {
	mu      sync.Mutex
	cond    *sync.Cond
	nextSeq uint32
	ackedTo uint32             // all seq < ackedTo acknowledged
	inFly   map[uint32]*flight // un-acked, un-SACKed frames by seq
	retries int
	broken  bool
	closed  bool

	// Byte window: inFlyBytes is the sum of len(frame) over inFly
	// (inFlyHW its high-water mark, for tests); peerShare is what the
	// peer last advertised, 0 until its first ack.
	inFlyBytes int
	inFlyHW    int
	peerShare  uint32

	// Adaptive RTO state (Jacobson/Karels). rto == 0 means "no sample
	// yet"; the endpoint's initial RTO applies.
	srtt   time.Duration
	rttvar time.Duration
	rto    time.Duration

	// Fast-retransmit state: consecutive duplicate cumulative acks at
	// ackedTo. Reset on every window advance; fires once per stall.
	dupAcks int
}

// admits reports whether one more frame of n bytes may go in flight:
// the fragment window has room and the bytes fit the peer's share. An
// idle channel always admits, so a frame larger than a small share (or
// any frame before the peer's first ack) still moves, one at a time.
// ss.mu must be held.
func (ss *sendState) admits(window uint32, n int) bool {
	if ss.nextSeq-ss.ackedTo >= window {
		return false
	}
	return ss.inFlyBytes == 0 || ss.inFlyBytes+n <= int(ss.peerShare)
}

// drop removes fl from the in-flight table and releases the table's
// reference. ss.mu must be held; the caller broadcasts ss.cond.
func (ss *sendState) drop(seq uint32, fl *flight) {
	delete(ss.inFly, seq)
	ss.inFlyBytes -= len(fl.frame)
	fl.release()
}

type recvState struct {
	mu       sync.Mutex
	expected uint32
	ooo      map[uint32][]byte // buffered out-of-order datagrams, each in its read slab
	oooHW    int               // high-water mark of len(ooo), for tests
	reasm    *wire.Reassembler
}

// NewUDPEndpoint binds node me at addrs[me] and prepares channels to
// every peer. counters may be nil.
func NewUDPEndpoint(me int, addrs []string, counters *stats.Counters) (*UDPEndpoint, error) {
	return NewUDPEndpointOptions(me, addrs, UDPOptions{Counters: counters})
}

// NewUDPEndpointOptions is NewUDPEndpoint with fault injection and
// flow-control knobs.
func NewUDPEndpointOptions(me int, addrs []string, o UDPOptions) (*UDPEndpoint, error) {
	if me < 0 || me >= len(addrs) {
		return nil, fmt.Errorf("transport: rank %d out of range for %d addrs", me, len(addrs))
	}
	e, err := NewUDPEndpointDeferred(me, len(addrs), addrs[me], o)
	if err != nil {
		return nil, err
	}
	if err := e.SetPeers(addrs); err != nil {
		if cerr := e.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, err
	}
	return e, nil
}

// NewUDPEndpointDeferred binds rank me of an n-node cluster at bind
// (which may name port 0 for a kernel-assigned ephemeral port) without
// yet knowing any peer address. LocalAddr reports the bound address so
// a launcher can collect it; SetPeers wires the peer list once every
// node has reported. This is the bring-up order of a multi-process
// deployment, where no address exists before every process has bound.
func NewUDPEndpointDeferred(me, n int, bind string, o UDPOptions) (*UDPEndpoint, error) {
	if me < 0 || me >= n {
		return nil, fmt.Errorf("transport: rank %d out of range for %d nodes", me, n)
	}
	ba, err := net.ResolveUDPAddr("udp", bind)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", bind, err)
	}
	conn, err := net.ListenUDP("udp", ba)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", bind, err)
	}
	rto := o.rto
	if rto <= 0 {
		rto = defaultRTO
		if o.Chaos != nil {
			rto = chaosRTO
		}
	}
	minRTO := o.minRTO
	if minRTO <= 0 {
		minRTO = defaultMinRTO
	}
	maxRTO := o.maxRTO
	if maxRTO <= 0 {
		maxRTO = defaultMaxRTO
	}
	if maxRTO < minRTO {
		maxRTO = minRTO
	}
	window := o.window
	if window <= 0 {
		window = defaultWindow
	}
	// Size the receive buffer for the senders this rank has, then split
	// what the kernel actually granted (rmem_max may cap the request)
	// between them. A failed request leaves the default buffer, which
	// the read-back reports all the same.
	_ = conn.SetReadBuffer(max(1, n-1) * rcvbufDatagrams * wire.MaxDatagram)
	granted, err := readBuffer(conn)
	if err != nil {
		err = fmt.Errorf("transport: read SO_RCVBUF of %q: %w", bind, err)
		if cerr := conn.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, err
	}
	e := &UDPEndpoint{
		id:           me,
		n:            n,
		conn:         conn,
		counters:     o.Counters,
		rto:          rto,
		minRTO:       minRTO,
		maxRTO:       maxRTO,
		window:       uint32(window),
		onRetransmit: o.OnRetransmit,
		inbox:        newMailbox(),
		readDone:     make(chan struct{}),
		retransKick:  make(chan struct{}, 1),
		sendsts:      make([]*sendState, n),
		recvsts:      make([]*recvState, n),
		done:         make(chan struct{}),
	}
	e.setRecvBuffer(granted)
	if o.Chaos != nil {
		e.chaos = newPacketChaos(*o.Chaos, me, e.rawWrite)
	}
	for i := 0; i < n; i++ {
		ss := &sendState{inFly: make(map[uint32]*flight)}
		ss.cond = sync.NewCond(&ss.mu)
		e.sendsts[i] = ss
		e.recvsts[i] = &recvState{ooo: make(map[uint32][]byte), reasm: wire.NewReassembler()}
	}
	// The read loop's first slab is taken here, so a new endpoint never
	// takes one from the pool behind its caller's back.
	go e.readLoop(wire.GetSlab(wire.MaxDatagram)[:wire.MaxDatagram])
	go e.retransmitLoop()
	return e, nil
}

// readBuffer reports the socket's SO_RCVBUF as the kernel accounts it.
func readBuffer(conn *net.UDPConn) (int, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return 0, err
	}
	var granted int
	var serr error
	if err := rc.Control(func(fd uintptr) {
		granted, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	}); err != nil {
		return 0, err
	}
	return granted, serr
}

// setRecvBuffer derives the per-sender share from a granted SO_RCVBUF.
// The kernel charges a datagram its payload plus bookkeeping against
// the buffer and reports twice the payload capacity it was asked for,
// so half the grant is what senders may fill. Tests call it to model a
// host that grants less.
func (e *UDPEndpoint) setRecvBuffer(granted int) {
	e.share.Store(uint32(granted / 2 / max(1, e.n-1)))
}

// SetPeers wires the peer address list (one address per rank, this
// node's own included). It may be called exactly once, and must be
// called before any peer traffic is expected to make progress; frames
// sent or received earlier are absorbed by the retransmission
// machinery.
func (e *UDPEndpoint) SetPeers(addrs []string) error {
	if len(addrs) != e.n {
		return fmt.Errorf("transport: %d peer addrs for %d nodes", len(addrs), e.n)
	}
	peers := make([]*net.UDPAddr, len(addrs))
	for i, a := range addrs {
		ua, err := net.ResolveUDPAddr("udp", a)
		if err != nil {
			return fmt.Errorf("transport: resolve %q: %w", a, err)
		}
		peers[i] = ua
	}
	if !e.peers.CompareAndSwap(nil, &peers) {
		return fmt.Errorf("transport: peers already set")
	}
	return nil
}

// LocalAddr reports the address the endpoint's socket is bound to —
// with a ":0" bind, the kernel-assigned ephemeral address a launcher
// must distribute to the other processes.
func (e *UDPEndpoint) LocalAddr() string { return e.conn.LocalAddr().String() }

// rawWrite pushes one frame onto the socket toward peer, dropping it
// silently while the peer list is not yet wired (retransmission heals).
func (e *UDPEndpoint) rawWrite(peer int, frame []byte) {
	ps := e.peers.Load()
	if ps == nil {
		return
	}
	e.conn.WriteToUDP(frame, (*ps)[peer]) //nolint:errcheck // recovered by retransmit
}

// ID returns this node's rank.
func (e *UDPEndpoint) ID() int { return e.id }

// N returns the cluster size.
func (e *UDPEndpoint) N() int { return e.n }

// writeTo pushes one flow-control frame toward peer, through the chaos
// layer when one is installed.
func (e *UDPEndpoint) writeTo(peer int, frame []byte) {
	if e.chaos != nil {
		e.chaos.write(peer, frame)
		return
	}
	e.rawWrite(peer, frame)
}

// Send fragments m and transmits each fragment under flow control.
func (e *UDPEndpoint) Send(m wire.Message) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.nextMsg++
	msgID := e.nextMsg<<16 | uint64(e.id) // unique across senders
	e.mu.Unlock()
	if int(m.To) >= e.n {
		return ErrBadDest
	}
	m.From = uint16(e.id)
	// Each fragment frame is cut straight from the message into its own
	// pooled slab, with flow-header headroom, and released when acked
	// (see flight).
	if e.counters != nil {
		e.counters.MsgsSent.Add(1)
		e.counters.FragsSent.Add(int64(wire.NumFragments(wire.EncodedLen(m))))
		e.counters.BytesSent.Add(int64(wire.EncodedLen(m)))
	}
	if int(m.To) != e.id {
		ss := e.sendsts[m.To]
		return wire.FragmentMessage(m, msgID, flowHeaderLen, func(f []byte) error {
			return e.sendFrame(ss, m.To, f)
		})
	}
	// Loopback short-circuit: deliver without touching the socket.
	re := e.recvsts[e.id]
	re.mu.Lock()
	err := wire.FragmentMessage(m, msgID, 0, func(f []byte) error {
		got, done, ferr := re.reasm.Feed(f)
		wire.PutSlab(f)
		if ferr != nil {
			return ferr
		}
		if done {
			if e.counters != nil {
				e.counters.MsgsRecv.Add(1)
				e.counters.BytesRecv.Add(int64(wire.EncodedLen(got)))
			}
			e.inbox.put(got)
		}
		return nil
	})
	re.mu.Unlock()
	return err
}

// sendFrame blocks until the window admits one more fragment, then
// transmits it and records it for retransmission. frame is a pooled
// buffer with flowHeaderLen bytes of headroom reserved at the front;
// sendFrame takes ownership and stamps the flow header in place once
// the sequence number is known.
func (e *UDPEndpoint) sendFrame(ss *sendState, to uint16, frame []byte) error {
	ss.mu.Lock()
	for !ss.broken && !ss.closed && !ss.admits(e.window, len(frame)) {
		ss.cond.Wait()
	}
	if ss.closed {
		ss.mu.Unlock()
		wire.PutSlab(frame)
		return ErrClosed
	}
	if ss.broken {
		ss.mu.Unlock()
		wire.PutSlab(frame)
		return fmt.Errorf("transport: channel to node %d broken after %d retries", to, maxRetries)
	}
	seq := ss.nextSeq
	ss.nextSeq++
	frame[0] = frameData
	binary.LittleEndian.PutUint16(frame[1:], uint16(e.id))
	binary.LittleEndian.PutUint32(frame[3:], seq)
	binary.LittleEndian.PutUint32(frame[7:], 0)
	fl := newFlight(frame)
	ss.inFly[seq] = fl
	ss.inFlyBytes += len(frame)
	ss.inFlyHW = max(ss.inFlyHW, ss.inFlyBytes)
	fl.acquire() // for the write below
	ss.mu.Unlock()
	if e.inFlight.Add(1) == 1 {
		// Idle -> busy: wake the retransmission loop onto its fast
		// cadence without waiting out the idle tick.
		select {
		case e.retransKick <- struct{}{}:
		default:
		}
	}
	e.writeTo(int(to), frame)
	fl.release()
	return nil
}

func makeFrame(kind byte, src uint16, seq, ack uint32, payload []byte) []byte {
	f := make([]byte, flowHeaderLen+len(payload))
	f[0] = kind
	binary.LittleEndian.PutUint16(f[1:], src)
	binary.LittleEndian.PutUint32(f[3:], seq)
	binary.LittleEndian.PutUint32(f[7:], ack)
	copy(f[flowHeaderLen:], payload)
	return f
}

// makeAckFrame builds a cumulative ack with a selective-ack bitmap and
// the byte window granted to the sender.
func makeAckFrame(src uint16, ackTo uint32, sack uint64, share uint32) []byte {
	return appendAckFrame(make([]byte, 0, ackLen), src, ackTo, sack, share)
}

// appendAckFrame appends a cumulative ack frame (selective-ack bitmap,
// then byte window) to dst — the allocation-free form used on the hot
// path.
func appendAckFrame(dst []byte, src uint16, ackTo uint32, sack uint64, share uint32) []byte {
	dst = append(dst, frameAck)
	dst = binary.LittleEndian.AppendUint16(dst, src)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	dst = binary.LittleEndian.AppendUint32(dst, ackTo)
	dst = binary.LittleEndian.AppendUint64(dst, sack)
	return binary.LittleEndian.AppendUint32(dst, share)
}

// flowFrame is one parsed flow-control frame.
type flowFrame struct {
	kind    byte
	src     uint16
	seq     uint32
	ack     uint32
	sack    uint64 // ack frames only; 0 when the bitmap is absent
	share   uint32 // ack frames only; 0 when the byte window is absent
	payload []byte // data frames only; aliases the input buffer
}

// parseFlowFrame decodes a datagram into a flow-control frame. It
// rejects anything too short to carry the header; an ack may stop after
// the header or after the bitmap (the missing fields read as 0), and
// excess bytes after the byte window are ignored (forward compatibility).
func parseFlowFrame(buf []byte) (flowFrame, bool) {
	if len(buf) < flowHeaderLen {
		return flowFrame{}, false
	}
	f := flowFrame{
		kind: buf[0],
		src:  binary.LittleEndian.Uint16(buf[1:]),
		seq:  binary.LittleEndian.Uint32(buf[3:]),
		ack:  binary.LittleEndian.Uint32(buf[7:]),
	}
	switch f.kind {
	case frameAck:
		if len(buf) >= flowHeaderLen+sackLen {
			f.sack = binary.LittleEndian.Uint64(buf[flowHeaderLen:])
		}
		if len(buf) >= ackLen {
			f.share = binary.LittleEndian.Uint32(buf[flowHeaderLen+sackLen:])
		}
	case frameData:
		f.payload = buf[flowHeaderLen:]
	default:
		return flowFrame{}, false
	}
	return f, true
}

// readLoop reads the socket until Close, starting with slab.
func (e *UDPEndpoint) readLoop(slab []byte) {
	defer close(e.readDone)
	// Every datagram is read into a pooled slab. A data frame's slab is
	// handed to handleData whole, which releases it once the reassembler
	// has taken the fragment, and the next read gets a fresh one; any
	// other datagram leaves the slab for the next read.
	defer func() { wire.PutSlab(slab) }()
	consecErrs := 0
	for {
		if slab == nil {
			slab = wire.GetSlab(wire.MaxDatagram)[:wire.MaxDatagram]
		}
		n, _, err := e.conn.ReadFromUDP(slab)
		if err != nil {
			select {
			case <-e.done:
				return
			default:
			}
			e.readErrs.Add(1)
			if errors.Is(err, net.ErrClosed) {
				// The socket is gone for good; nothing will ever be
				// readable again.
				return
			}
			// Transient errors (ICMP port-unreachable, ENOBUFS, read
			// deadlines, ...): back off exponentially instead of
			// busy-spinning at 100% CPU, and stay responsive to Close.
			consecErrs++
			backoff := time.Millisecond << min(consecErrs, 10)
			if backoff > readErrBackoffMax {
				backoff = readErrBackoffMax
			}
			select {
			case <-e.done:
				return
			case <-time.After(backoff):
			}
			continue
		}
		consecErrs = 0
		f, ok := parseFlowFrame(slab[:n])
		if !ok || int(f.src) >= e.n {
			continue
		}
		switch f.kind {
		case frameAck:
			e.handleAck(int(f.src), f.ack, f.sack, f.share)
		case frameData:
			e.handleData(int(f.src), f.seq, slab[:n])
			slab = nil
		}
	}
}

// sampleRTT feeds one RTT measurement into the channel's Jacobson/
// Karels estimator. ss.mu must be held.
func (e *UDPEndpoint) sampleRTT(ss *sendState, rtt time.Duration) {
	if rtt < 0 {
		return
	}
	if ss.srtt == 0 {
		ss.srtt = rtt
		ss.rttvar = rtt / 2
	} else {
		d := ss.srtt - rtt
		if d < 0 {
			d = -d
		}
		ss.rttvar = (3*ss.rttvar + d) / 4
		ss.srtt = (7*ss.srtt + rtt) / 8
	}
	rto := ss.srtt + 4*ss.rttvar
	if rto < e.minRTO {
		rto = e.minRTO
	}
	if rto > e.maxRTO {
		rto = e.maxRTO
	}
	ss.rto = rto
	if e.counters != nil {
		e.counters.RTTSamples.Add(1)
	}
}

// channelRTO returns the retransmission timeout currently in force for
// ss. ss.mu must be held.
func (e *UDPEndpoint) channelRTO(ss *sendState) time.Duration {
	if ss.rto == 0 {
		return e.rto
	}
	return ss.rto
}

func (e *UDPEndpoint) handleAck(from int, ackTo uint32, sack uint64, share uint32) {
	ss := e.sendsts[from]
	ss.mu.Lock()
	// Clamp: an ack can never exceed what we actually sent. Without
	// this, a corrupt or forged datagram would push ackedTo past
	// nextSeq and the unsigned window arithmetic (nextSeq-ackedTo)
	// would wrap huge, wedging every future sendFrame for this peer. A
	// clamped (forged) ack also gets no SACK/dup-ack processing: its
	// bitmap offsets would be meaningless.
	forged := ackTo > ss.nextSeq
	if forged {
		ackTo = ss.nextSeq
		sack = 0
	} else if share != ss.peerShare {
		// An ack without the field (or granting 0) drops the channel to
		// one datagram at a time; it cannot wedge it.
		ss.peerShare = share
		ss.cond.Broadcast()
	}
	now := time.Now()
	released := 0
	advanced := ackTo > ss.ackedTo
	if advanced {
		for s := ss.ackedTo; s < ackTo; s++ {
			if fl := ss.inFly[s]; fl != nil {
				if !fl.retx {
					e.sampleRTT(ss, now.Sub(fl.sentAt))
				}
				ss.drop(s, fl)
				released++
			}
		}
		ss.ackedTo = ackTo
		ss.retries = 0
		ss.dupAcks = 0
		ss.cond.Broadcast()
	}
	var fastResend *flight
	// Selective acks: the receiver holds these fragments in its
	// out-of-order buffer; they never need retransmission. The
	// window itself still advances only with the cumulative ack.
	for i := 0; sack != 0 && i < sackBits; i++ {
		if sack&(1<<uint(i)) == 0 {
			continue
		}
		s := ackTo + 1 + uint32(i)
		if fl := ss.inFly[s]; fl != nil {
			if !fl.retx {
				e.sampleRTT(ss, now.Sub(fl.sentAt))
			}
			ss.drop(s, fl)
			released++
		}
	}
	if released > 0 {
		// Bytes were freed even if the window did not advance.
		ss.cond.Broadcast()
	}
	// Fast retransmit: duplicate cumulative acks while data is
	// outstanding mean the frame at ackedTo went missing but later
	// frames are arriving. Resend the hole immediately, once per
	// stall, instead of waiting out the RTO.
	if !forged && !advanced && ackTo == ss.ackedTo && ss.ackedTo != ss.nextSeq {
		ss.dupAcks++
		if ss.dupAcks == dupAckThreshold {
			if fl := ss.inFly[ss.ackedTo]; fl != nil {
				fl.retx = true
				fl.sentAt = now
				fl.acquire() // for the write below
				fastResend = fl
			}
		}
	}
	ss.mu.Unlock()
	if released > 0 {
		e.inFlight.Add(int64(-released))
	}
	if fastResend != nil {
		if e.counters != nil {
			e.counters.FragsRetrans.Add(1)
			e.counters.FastRetrans.Add(1)
		}
		if e.onRetransmit != nil {
			e.onRetransmit(1)
		}
		e.writeTo(from, fastResend.frame)
		fastResend.release()
	}
}

// handleData takes one data frame from a peer: dgram is the whole
// datagram, flow header included, in a pooled slab that handleData now
// owns. The slab itself waits in the out-of-order buffer — nothing is
// copied until the reassembler copies the fragment to its place in the
// message — and is released once the reassembler has seen it, or at once
// if the frame is a duplicate or outside the window.
func (e *UDPEndpoint) handleData(from int, seq uint32, dgram []byte) {
	rs := e.recvsts[from]
	rs.mu.Lock()
	// Accept only fragments inside the receive window. Anything at or
	// beyond expected+window cannot be a legitimate in-flight frame
	// (the sender's window forbids it), so buffering it would let a
	// hostile or wildly delayed peer grow rs.ooo without bound; it is
	// dropped here and the ack below tells the sender where we stand.
	if seq >= rs.expected && seq-rs.expected < e.window && rs.ooo[seq] == nil {
		rs.ooo[seq] = dgram
		if len(rs.ooo) > rs.oooHW {
			rs.oooHW = len(rs.ooo)
		}
	} else {
		wire.PutSlab(dgram)
	}
	// Drain the in-order prefix into the reassembler, which copies what
	// it keeps. A drain rarely completes more than a message or two, so
	// they collect in an array on the stack until the ack has gone out.
	var completedBuf [4]wire.Message
	completed := completedBuf[:0]
	for {
		p, ok := rs.ooo[rs.expected]
		if !ok {
			break
		}
		delete(rs.ooo, rs.expected)
		rs.expected++
		m, done, err := rs.reasm.Feed(p[flowHeaderLen:])
		wire.PutSlab(p)
		if err == nil && done {
			completed = append(completed, m)
		}
	}
	ackTo := rs.expected
	// SACK bitmap: after the drain, every buffered fragment sits above
	// the cumulative ack; bit i reports ackTo+1+i.
	var sack uint64
	for s := range rs.ooo {
		if off := s - ackTo - 1; off < sackBits {
			sack |= 1 << uint(off)
		}
	}
	rs.mu.Unlock()

	// Cumulative ack for everything in order so far, plus the selective
	// bitmap for what is buffered beyond it. Duplicated and reordered
	// data frames re-ack too, which is what heals a lost ack: the
	// sender's retransmission provokes a fresh one. The ack frame is
	// pooled; the chaos layer (when present) copies what it delays, so
	// releasing after the write is safe.
	ack := appendAckFrame(wire.GetSlab(ackLen), uint16(e.id), ackTo, sack, e.share.Load())
	e.writeTo(from, ack)
	wire.PutSlab(ack)

	for _, m := range completed {
		if e.counters != nil {
			e.counters.MsgsRecv.Add(1)
			e.counters.BytesRecv.Add(int64(wire.EncodedLen(m)))
		}
		e.inbox.put(m)
	}
}

// retransmitTick is the clock granularity of the retransmission
// scanner; per-channel adaptive RTOs are enforced against it.
func (e *UDPEndpoint) retransmitTick() time.Duration {
	tick := e.minRTO / 2
	if tick < 500*time.Microsecond {
		tick = 500 * time.Microsecond
	}
	return tick
}

func (e *UDPEndpoint) retransmitLoop() {
	// Two-speed clock: while frames are in flight the loop scans at the
	// RTO granularity (busy); while the endpoint is idle it wakes only
	// at the coarse idle cadence and touches no per-channel locks — a
	// sendFrame kick snaps it back to the fast cadence immediately.
	busy := e.retransmitTick()
	idle := e.rto / 2
	if idle < busy {
		idle = busy
	}
	timer := time.NewTimer(busy)
	defer timer.Stop()
	resetTimer := func(d time.Duration) {
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(d)
	}
	for {
		select {
		case <-e.done:
			return
		case <-timer.C:
		case <-e.retransKick:
		}
		if e.inFlight.Load() == 0 {
			resetTimer(idle)
			continue
		}
		now := time.Now()
		for peer, ss := range e.sendsts {
			if peer == e.id {
				continue
			}
			ss.mu.Lock()
			rto := e.channelRTO(ss)
			var resend []*flight
			for _, fl := range ss.inFly {
				if now.Sub(fl.sentAt) >= rto {
					fl.acquire() // for the write after unlock
					resend = append(resend, fl)
					fl.sentAt = now
					fl.retx = true
				}
			}
			if len(resend) > 0 {
				ss.retries++
				// Karn backoff: while losses persist, double the
				// timeout (bounded) so a congested or partitioned
				// link is probed, not flooded.
				next := 2 * rto
				if next > e.maxRTO {
					next = e.maxRTO
				}
				ss.rto = next
				if ss.retries > maxRetries {
					ss.broken = true
					ss.cond.Broadcast()
					// The channel is dead; drop its in-flight frames so
					// they neither retransmit nor hold the loop busy.
					e.inFlight.Add(int64(-len(ss.inFly)))
					for s, fl := range ss.inFly {
						ss.drop(s, fl)
					}
					for _, fl := range resend {
						fl.release() // undo the write references
					}
					resend = nil
				}
			}
			ss.mu.Unlock()
			if len(resend) > 0 {
				if e.counters != nil {
					e.counters.FragsRetrans.Add(int64(len(resend)))
				}
				if e.onRetransmit != nil {
					e.onRetransmit(len(resend))
				}
			}
			for _, fl := range resend {
				e.writeTo(peer, fl.frame)
				fl.release()
			}
		}
		resetTimer(busy)
	}
}

// oooHighWater reports the peak size of the out-of-order buffer for
// the channel from the given peer (test hook).
func (e *UDPEndpoint) oooHighWater(from int) int {
	rs := e.recvsts[from]
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.oooHW
}

// Drain blocks until every transmitted frame has been acknowledged by
// its receiver (broken channels excluded), or the timeout passes.
func (e *UDPEndpoint) Drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for e.inFlight.Load() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("transport: drain timeout with %d frames unacked", e.inFlight.Load())
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// Recv blocks for the next reassembled message.
func (e *UDPEndpoint) Recv() (wire.Message, bool) { return e.inbox.get() }

// Close shuts the endpoint down. It returns once the read loop has
// exited and put its slab back.
func (e *UDPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	close(e.done)
	if e.chaos != nil {
		e.chaos.close()
	}
	// Wake senders parked on a full window; without this a Close racing
	// an in-flight large Send deadlocks the sending goroutine forever.
	for _, ss := range e.sendsts {
		ss.mu.Lock()
		ss.closed = true
		ss.cond.Broadcast()
		ss.mu.Unlock()
	}
	e.inbox.close()
	err := e.conn.Close()
	<-e.readDone
	return err
}

// FreeLocalAddrs returns n distinct loopback addresses with
// kernel-assigned free ports, for tests that spin up a local UDP cluster.
func FreeLocalAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	conns := make([]*net.UDPConn, n)
	for i := 0; i < n; i++ {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, err
		}
		conns[i] = c
		addrs[i] = c.LocalAddr().String()
	}
	for _, c := range conns {
		c.Close()
	}
	return addrs, nil
}
