package transport

// TCP transport: the production-interconnect alternative to the
// paper's UDP channels. Each ordered pair of nodes (i -> j) shares one
// persistent TCP connection dialed by i, carrying length-prefixed
// frames: data frames (wire fragments) flow i -> j and cumulative
// acknowledgement frames flow back j -> i on the same connection.
//
// TCP already provides in-order reliable bytes, but a *connection* can
// die (peer restart, network blip, chaos injection). The transport
// therefore keeps its own per-link sequence numbers: the sender holds
// every unacknowledged frame, and on reconnect a hello/hello-ack
// handshake tells it the receiver's resume point so it retransmits
// exactly the suffix the receiver never processed. The receiver
// discards frames below its resume point, so crash-reconnect races
// deliver exactly once.
//
// Frame layout (little endian):
//
//	u32 length (of everything after this field)
//	u8  kind (hello | helloAck | data | ack)
//	u64 seq (data: frame sequence; ack/helloAck: cumulative resume
//	         point, i.e. the next sequence the receiver expects;
//	         hello: the dialer's rank)
//	...payload (data frames: one wire fragment)

import (
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/internal/wire"
)

const (
	tcpHello    = 1
	tcpHelloAck = 2
	tcpData     = 3
	tcpAck      = 4

	// tcpFrameHeaderLen: kind(1) + seq(8). The u32 length prefix is not
	// part of the frame proper.
	tcpFrameHeaderLen = 9

	// tcpWindow bounds unacknowledged frames per link; senders block
	// beyond it so a dead peer cannot absorb unbounded memory.
	tcpWindow = 256

	// tcpMaxFrame bounds incoming frame claims (a wire fragment plus
	// header slack); anything larger is a corrupt stream.
	tcpMaxFrame = wire.MaxDatagram + 1024

	// Dial retry schedule: linear backoff capped at tcpDialBackoffMax,
	// giving up (link broken) after tcpDialAttempts consecutive
	// failures — generous against transient partitions, finite against
	// a peer that is simply gone.
	tcpDialBackoff    = 20 * time.Millisecond
	tcpDialBackoffMax = 250 * time.Millisecond
	tcpDialAttempts   = 200
)

// TCPOptions tunes a TCPEndpoint.
type TCPOptions struct {
	// Counters may be nil (no accounting).
	Counters *stats.Counters
	// Chaos, when non-nil with ConnKillEvery > 0, periodically severs
	// live peer connections to exercise reconnect-and-resume.
	Chaos *Chaos
	// TLS, when non-nil, encrypts every link: the listener serves the
	// config's certificate and every dial verifies the peer against
	// its roots. The same config is used for both roles (see
	// SelfSignedTLS). Reconnect-and-resume re-handshakes transparently.
	TLS *tls.Config
}

// TCPEndpoint is a node's attachment over persistent TCP connections.
type TCPEndpoint struct {
	id int
	n  int
	// peerAddrs holds the peer address list once it is known. With
	// NewTCPEndpointOptions it is fixed at construction; with
	// NewTCPEndpointDeferred the endpoint only listens (so a launcher
	// can collect its ephemeral address) and SetPeers wires the list
	// later. Dials wait for it; inbound connections need no addresses.
	peerAddrs atomic.Pointer[[]string]
	ln        net.Listener
	counters  *stats.Counters
	tlsCfg    *tls.Config // nil = plaintext links

	inbox *mailbox

	mu      sync.Mutex
	nextMsg uint64
	closed  bool
	// accepted tracks inbound connections so Close can sever them.
	accepted map[net.Conn]bool

	links   []*tcpSendLink
	rstates []*tcpRecvState

	done chan struct{}
}

// tcpSendLink is the sender half of one i -> j channel.
type tcpSendLink struct {
	ep *TCPEndpoint
	to int

	// tlsCfg is this link's private clone of the endpoint's TLS config
	// with its own client session cache, so a reconnect resumes the
	// previous TLS session (one round trip, no certificate re-exchange)
	// without peers sharing a cache: the cache is keyed by ServerName,
	// which every cluster node shares, so a common cache would hand one
	// peer another peer's tickets. Nil on plaintext endpoints.
	tlsCfg *tls.Config

	mu      sync.Mutex
	cond    *sync.Cond
	conn    net.Conn
	nextSeq uint64
	ackedTo uint64
	unacked []tcpFrame
	sendPos int // next unacked index to transmit on the current conn
	dialing bool
	broken  bool
	closed  bool
}

type tcpFrame struct {
	seq uint64
	fr  *pframe // full encoded frame including length prefix
}

// pframe is a pooled, reference-counted frame buffer. The unacked
// window holds one reference until the frame is acknowledged, and the
// write loop holds one for the duration of each socket write (writes
// happen outside l.mu, concurrently with acks trimming the window, and
// a reconnect rewind can write the same frame again).
type pframe struct {
	b    []byte
	refs atomic.Int32
}

func newPframe(b []byte) *pframe {
	p := &pframe{b: b}
	p.refs.Store(1)
	return p
}

func (p *pframe) acquire() { p.refs.Add(1) }

func (p *pframe) release() {
	if p.refs.Add(-1) == 0 {
		wire.PutSlab(p.b)
	}
}

// tcpFrameHeadroom is the transport framing a data frame needs in
// front of the wire fragment: the u32 length prefix plus the frame
// header. Fragments are cut with this much pooled headroom so the
// whole frame is one buffer, written with one syscall and no copy.
const tcpFrameHeadroom = 4 + tcpFrameHeaderLen

// tcpRecvState is the receiver half of one i -> j channel; it survives
// connection replacement.
type tcpRecvState struct {
	mu       sync.Mutex
	expected uint64
	reasm    *wire.Reassembler
}

// NewTCPEndpoint binds node me at addrs[me] and prepares lazy
// persistent connections to every peer. counters may be nil.
func NewTCPEndpoint(me int, addrs []string, counters *stats.Counters) (*TCPEndpoint, error) {
	return NewTCPEndpointOptions(me, addrs, TCPOptions{Counters: counters})
}

// NewTCPEndpointOptions is NewTCPEndpoint with fault-injection knobs.
func NewTCPEndpointOptions(me int, addrs []string, o TCPOptions) (*TCPEndpoint, error) {
	if me < 0 || me >= len(addrs) {
		return nil, fmt.Errorf("transport: rank %d out of range for %d addrs", me, len(addrs))
	}
	e, err := NewTCPEndpointDeferred(me, len(addrs), addrs[me], o)
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

// NewTCPEndpointDeferred binds rank me of an n-node cluster at bind
// (which may name port 0 for a kernel-assigned ephemeral port) without
// yet knowing any peer address. LocalAddr reports the listening
// address so a launcher can collect it; SetPeers wires the peer list
// once every node has reported. Dial attempts wait for the list
// instead of failing; inbound connections are served immediately.
func NewTCPEndpointDeferred(me, n int, bind string, o TCPOptions) (*TCPEndpoint, error) {
	if me < 0 || me >= n {
		return nil, fmt.Errorf("transport: rank %d out of range for %d nodes", me, n)
	}
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", bind, err)
	}
	if o.TLS != nil {
		ln = tls.NewListener(ln, o.TLS)
	}
	e := &TCPEndpoint{
		id:       me,
		n:        n,
		ln:       ln,
		counters: o.Counters,
		tlsCfg:   o.TLS,
		inbox:    newMailbox(),
		accepted: make(map[net.Conn]bool),
		links:    make([]*tcpSendLink, n),
		rstates:  make([]*tcpRecvState, n),
		done:     make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		l := &tcpSendLink{ep: e, to: i}
		if e.tlsCfg != nil {
			l.tlsCfg = e.tlsCfg.Clone()
			l.tlsCfg.ClientSessionCache = tls.NewLRUClientSessionCache(4)
		}
		l.cond = sync.NewCond(&l.mu)
		e.links[i] = l
		e.rstates[i] = &tcpRecvState{reasm: wire.NewReassembler()}
		if i != me {
			go l.writeLoop()
		}
	}
	go e.acceptLoop()
	if o.Chaos != nil && o.Chaos.ConnKillEvery > 0 {
		go e.connKillLoop(*o.Chaos)
	}
	return e, nil
}

// SetPeers wires the peer address list (one address per rank, this
// node's own included). It may be called exactly once; links whose
// dial loops were started earlier pick the addresses up on their next
// attempt.
func (e *TCPEndpoint) SetPeers(addrs []string) error {
	if len(addrs) != e.n {
		return fmt.Errorf("transport: %d peer addrs for %d nodes", len(addrs), e.n)
	}
	cp := append([]string(nil), addrs...)
	if !e.peerAddrs.CompareAndSwap(nil, &cp) {
		return fmt.Errorf("transport: peers already set")
	}
	return nil
}

// LocalAddr reports the address the endpoint is listening on — with a
// ":0" bind, the kernel-assigned ephemeral address a launcher must
// distribute to the other processes.
func (e *TCPEndpoint) LocalAddr() string { return e.ln.Addr().String() }

// peerAddr returns peer i's address, or ok=false while the peer list
// has not been wired yet.
func (e *TCPEndpoint) peerAddr(i int) (string, bool) {
	ps := e.peerAddrs.Load()
	if ps == nil {
		return "", false
	}
	return (*ps)[i], true
}

// ID returns this node's rank.
func (e *TCPEndpoint) ID() int { return e.id }

// N returns the cluster size.
func (e *TCPEndpoint) N() int { return e.n }

// Send fragments m and queues each fragment on the destination link.
func (e *TCPEndpoint) Send(m wire.Message) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.nextMsg++
	msgID := e.nextMsg<<16 | uint64(e.id)
	e.mu.Unlock()
	if int(m.To) >= e.n {
		return ErrBadDest
	}
	m.From = uint16(e.id)
	// Each data frame is cut straight from the message into its own
	// pooled slab, with TCP framing headroom, and released when acked
	// (see pframe).
	if e.counters != nil {
		e.counters.MsgsSent.Add(1)
		e.counters.FragsSent.Add(int64(wire.NumFragments(wire.EncodedLen(m))))
		e.counters.BytesSent.Add(int64(wire.EncodedLen(m)))
	}
	if int(m.To) != e.id {
		return wire.FragmentMessage(m, msgID, tcpFrameHeadroom, e.links[m.To].enqueue)
	}
	// Loopback short-circuit: deliver without touching the network.
	rs := e.rstates[e.id]
	rs.mu.Lock()
	err := wire.FragmentMessage(m, msgID, 0, func(f []byte) error {
		got, done, ferr := rs.reasm.Feed(f)
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
	rs.mu.Unlock()
	return err
}

// Drain blocks until every enqueued frame has been written and
// acknowledged by its receiver (broken or closed links excluded), or
// the timeout passes.
func (e *TCPEndpoint) Drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		pending := 0
		for i, l := range e.links {
			if i == e.id {
				continue
			}
			l.mu.Lock()
			if !l.broken && !l.closed {
				pending += len(l.unacked)
			}
			l.mu.Unlock()
		}
		if pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("transport: drain timeout with %d frames unacked", pending)
		}
		time.Sleep(time.Millisecond)
	}
}

// Recv blocks for the next reassembled message.
func (e *TCPEndpoint) Recv() (wire.Message, bool) { return e.inbox.get() }

// Close shuts the endpoint down: listener, all connections, and any
// senders parked on a full window or a dead link.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	conns := make([]net.Conn, 0, len(e.accepted))
	for c := range e.accepted {
		conns = append(conns, c)
	}
	e.accepted = make(map[net.Conn]bool)
	e.mu.Unlock()
	close(e.done)
	e.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	for _, l := range e.links {
		l.mu.Lock()
		l.closed = true
		if l.conn != nil {
			l.conn.Close()
			l.conn = nil
		}
		l.cond.Broadcast()
		l.mu.Unlock()
	}
	e.inbox.close()
	return nil
}

func (e *TCPEndpoint) isClosed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// ---- Sender side --------------------------------------------------------

// enqueue admits one data frame to the link, blocking while the window
// is full, and kicks the writer (and a dial, if the link is down).
// frame is a pooled buffer with tcpFrameHeadroom bytes reserved at the
// front; enqueue takes ownership and stamps the length prefix, kind,
// and sequence number in place.
func (l *tcpSendLink) enqueue(frame []byte) error {
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	frame[4] = tcpData
	l.mu.Lock()
	for !l.closed && !l.broken && len(l.unacked) >= tcpWindow {
		l.cond.Wait()
	}
	if l.closed {
		l.mu.Unlock()
		wire.PutSlab(frame)
		return ErrClosed
	}
	if l.broken {
		l.mu.Unlock()
		wire.PutSlab(frame)
		return fmt.Errorf("transport: tcp channel to node %d broken after %d dial attempts", l.to, tcpDialAttempts)
	}
	seq := l.nextSeq
	l.nextSeq++
	binary.LittleEndian.PutUint64(frame[5:], seq)
	l.unacked = append(l.unacked, tcpFrame{seq: seq, fr: newPframe(frame)})
	l.ensureConnLocked()
	l.cond.Broadcast()
	l.mu.Unlock()
	return nil
}

// ensureConnLocked starts a dial if the link has no connection and no
// dial in flight. Caller holds l.mu.
func (l *tcpSendLink) ensureConnLocked() {
	if l.conn == nil && !l.dialing && !l.closed && !l.broken {
		l.dialing = true
		go l.dialLoop()
	}
}

// writeLoop owns all data writes on the link's current connection.
func (l *tcpSendLink) writeLoop() {
	for {
		l.mu.Lock()
		for !l.closed && (l.conn == nil || l.sendPos >= len(l.unacked)) {
			l.cond.Wait()
		}
		if l.closed {
			l.mu.Unlock()
			return
		}
		conn := l.conn
		f := l.unacked[l.sendPos]
		f.fr.acquire() // for the write outside the lock
		l.sendPos++
		l.mu.Unlock()
		_, err := conn.Write(f.fr.b)
		f.fr.release()
		if err != nil {
			l.connFailed(conn)
		}
	}
}

// connFailed retires a dead connection and rewinds the transmit cursor
// so the next connection resends every unacknowledged frame.
func (l *tcpSendLink) connFailed(conn net.Conn) {
	conn.Close()
	l.mu.Lock()
	if l.conn == conn {
		l.conn = nil
		l.sendPos = 0
		l.ensureConnLocked()
	}
	l.mu.Unlock()
}

// dialLoop (re)establishes the link's connection with backoff, runs the
// resume handshake, and hands the connection to the writer.
func (l *tcpSendLink) dialLoop() {
	e := l.ep
	for attempt := 0; ; {
		if e.isClosed() {
			l.giveUpDial(false)
			return
		}
		addr, ok := e.peerAddr(l.to)
		if !ok {
			// Deferred bring-up: the launcher has not distributed the
			// peer list yet. Wait without burning dial attempts — this
			// is not a failure, just an earlier phase.
			select {
			case <-e.done:
				l.giveUpDial(false)
				return
			case <-time.After(tcpDialBackoff):
			}
			continue
		}
		conn, err := l.dial(addr)
		if err == nil {
			resume, herr := l.handshake(conn)
			if herr == nil {
				l.install(conn, resume)
				return
			}
			conn.Close()
		}
		attempt++
		if attempt >= tcpDialAttempts {
			l.giveUpDial(true)
			return
		}
		backoff := time.Duration(attempt) * tcpDialBackoff
		if backoff > tcpDialBackoffMax {
			backoff = tcpDialBackoffMax
		}
		select {
		case <-e.done:
			l.giveUpDial(false)
			return
		case <-time.After(backoff):
		}
	}
}

// dial opens one connection to addr, with the TLS handshake folded in
// when the endpoint is encrypted (so a half-open TLS peer cannot park
// the dial loop past its backoff budget).
func (l *tcpSendLink) dial(addr string) (net.Conn, error) {
	d := &net.Dialer{Timeout: time.Second}
	if cfg := l.tlsCfg; cfg != nil {
		return tls.DialWithDialer(d, "tcp", addr, cfg)
	}
	return d.Dial("tcp", addr)
}

func (l *tcpSendLink) giveUpDial(broken bool) {
	l.mu.Lock()
	l.dialing = false
	if broken && !l.closed {
		l.broken = true
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// handshake announces our rank and learns the receiver's resume point.
func (l *tcpSendLink) handshake(conn net.Conn) (uint64, error) {
	deadline := time.Now().Add(2 * time.Second)
	conn.SetDeadline(deadline) //nolint:errcheck
	if _, err := conn.Write(makeTCPFrame(tcpHello, uint64(l.ep.id), nil)); err != nil {
		return 0, err
	}
	kind, seq, _, err := readTCPFrame(conn, nil)
	if err != nil {
		return 0, err
	}
	if kind != tcpHelloAck {
		return 0, fmt.Errorf("transport: tcp handshake: unexpected frame kind %d", kind)
	}
	conn.SetDeadline(time.Time{}) //nolint:errcheck
	return seq, nil
}

// install publishes a freshly handshaken connection: frames the
// receiver already processed are acked away, the transmit cursor
// rewinds, and a reader goroutine starts draining acks.
func (l *tcpSendLink) install(conn net.Conn, resume uint64) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		conn.Close()
		return
	}
	l.ackLocked(resume)
	l.sendPos = 0
	l.conn = conn
	l.dialing = false
	l.cond.Broadcast()
	l.mu.Unlock()
	go l.ackLoop(conn)
}

// ackLocked applies a cumulative acknowledgement. Caller holds l.mu.
func (l *tcpSendLink) ackLocked(ackTo uint64) {
	if ackTo > l.nextSeq {
		ackTo = l.nextSeq // corrupt peer must not wedge the window
	}
	if ackTo <= l.ackedTo {
		return
	}
	drop := int(ackTo - l.ackedTo)
	if drop > len(l.unacked) {
		drop = len(l.unacked)
	}
	for i := 0; i < drop; i++ {
		l.unacked[i].fr.release() // drop the window's reference
		l.unacked[i].fr = nil
	}
	l.unacked = l.unacked[drop:]
	l.sendPos -= drop
	if l.sendPos < 0 {
		l.sendPos = 0
	}
	l.ackedTo = ackTo
	l.cond.Broadcast()
}

// ackLoop drains acknowledgement frames from one connection.
func (l *tcpSendLink) ackLoop(conn net.Conn) {
	for {
		kind, seq, _, err := readTCPFrame(conn, nil)
		if err != nil {
			l.connFailed(conn)
			return
		}
		if kind == tcpAck {
			l.mu.Lock()
			l.ackLocked(seq)
			l.mu.Unlock()
		}
	}
}

// ---- Receiver side ------------------------------------------------------

func (e *TCPEndpoint) acceptLoop() {
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			if e.isClosed() {
				return
			}
			// Back off on transient errors (EMFILE under fd pressure)
			// instead of hot-spinning against a failing listener.
			time.Sleep(10 * time.Millisecond)
			continue
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			conn.Close()
			continue
		}
		e.accepted[conn] = true
		e.mu.Unlock()
		go e.serveConn(conn)
	}
}

func (e *TCPEndpoint) dropAccepted(conn net.Conn) {
	e.mu.Lock()
	delete(e.accepted, conn)
	e.mu.Unlock()
	conn.Close()
}

// serveConn handles one inbound connection: hello handshake, then data
// frames, acking cumulatively after each.
func (e *TCPEndpoint) serveConn(conn net.Conn) {
	defer e.dropAccepted(conn)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	kind, src64, _, err := readTCPFrame(conn, nil)
	// Range-check in uint64 space: a hostile hello with the high bit
	// set would convert to a negative int and slip past an int compare
	// straight into a panicking slice index.
	if err != nil || kind != tcpHello || src64 >= uint64(e.n) || int(src64) == e.id {
		return
	}
	conn.SetReadDeadline(time.Time{}) //nolint:errcheck
	src := int(src64)
	rs := e.rstates[src]

	rs.mu.Lock()
	resume := rs.expected
	rs.mu.Unlock()
	if _, err := conn.Write(makeTCPFrame(tcpHelloAck, resume, nil)); err != nil {
		return
	}

	buf := make([]byte, 0, 64<<10)
	for {
		kind, seq, payload, err := readTCPFrame(conn, buf)
		if err != nil {
			return
		}
		if kind != tcpData {
			continue
		}
		rs.mu.Lock()
		var completed []wire.Message
		if seq == rs.expected {
			rs.expected++
			// Feed the read buffer directly: the reassembler copies
			// whatever it keeps before returning, and buf is not reused
			// until the next readTCPFrame call.
			if m, done, ferr := rs.reasm.Feed(payload); ferr == nil && done {
				completed = append(completed, m)
			}
		}
		// seq < expected: resent frame we already processed — just
		// re-ack. seq > expected cannot happen on an in-order stream
		// that resumes from our ack point; dropping it would deadlock,
		// so treat it as corruption and kill the connection.
		gap := seq > rs.expected
		ackTo := rs.expected
		rs.mu.Unlock()
		// Deliver before acking: rs.expected has already advanced, so
		// if the ack write fails (connection killed under us) the
		// sender's resend will be discarded as a duplicate — returning
		// here without delivering would lose the message forever.
		for _, m := range completed {
			if e.counters != nil {
				e.counters.MsgsRecv.Add(1)
				e.counters.BytesRecv.Add(int64(wire.EncodedLen(m)))
			}
			e.inbox.put(m)
		}
		if gap {
			return
		}
		if _, err := conn.Write(makeTCPFrame(tcpAck, ackTo, nil)); err != nil {
			return
		}
	}
}

// ---- Chaos: connection killer -------------------------------------------

// connKillLoop severs one live dial-side connection roughly every
// ConnKillEvery, driving the reconnect/resume machinery.
func (e *TCPEndpoint) connKillLoop(cfg Chaos) {
	st := cfg.stats()
	rng := rand.New(rand.NewSource(cfg.linkSeed(e.id, 0x7c9)))
	for {
		jitter := time.Duration(rng.Int63n(int64(cfg.ConnKillEvery)))
		select {
		case <-e.done:
			return
		case <-time.After(cfg.ConnKillEvery/2 + jitter):
		}
		live := make([]*tcpSendLink, 0, len(e.links))
		for i, l := range e.links {
			if i == e.id {
				continue
			}
			l.mu.Lock()
			if l.conn != nil {
				live = append(live, l)
			}
			l.mu.Unlock()
		}
		if len(live) == 0 {
			continue
		}
		l := live[rng.Intn(len(live))]
		l.mu.Lock()
		conn := l.conn
		l.mu.Unlock()
		if conn != nil {
			st.ConnKills.Add(1)
			conn.Close() // readers/writers will fail over and redial
		}
	}
}

// ---- Framing ------------------------------------------------------------

// makeTCPFrame encodes one frame, length prefix included.
func makeTCPFrame(kind byte, seq uint64, payload []byte) []byte {
	f := make([]byte, 4+tcpFrameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(f, uint32(tcpFrameHeaderLen+len(payload)))
	f[4] = kind
	binary.LittleEndian.PutUint64(f[5:], seq)
	copy(f[4+tcpFrameHeaderLen:], payload)
	return f
}

// readTCPFrame reads one frame. buf, when non-nil, is reused for the
// payload (the returned slice aliases it and is valid until the next
// call).
func readTCPFrame(conn net.Conn, buf []byte) (kind byte, seq uint64, payload []byte, err error) {
	var hdr [4 + tcpFrameHeaderLen]byte
	if _, err = io.ReadFull(conn, hdr[:4]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n < tcpFrameHeaderLen || n > tcpMaxFrame {
		return 0, 0, nil, fmt.Errorf("transport: tcp frame length %d out of range", n)
	}
	if _, err = io.ReadFull(conn, hdr[4:]); err != nil {
		return 0, 0, nil, err
	}
	kind = hdr[4]
	seq = binary.LittleEndian.Uint64(hdr[5:])
	plen := int(n) - tcpFrameHeaderLen
	if plen == 0 {
		return kind, seq, nil, nil
	}
	if cap(buf) < plen {
		buf = make([]byte, plen)
	}
	payload = buf[:plen]
	if _, err = io.ReadFull(conn, payload); err != nil {
		return 0, 0, nil, err
	}
	return kind, seq, payload, nil
}

// FreeLocalTCPAddrs returns n distinct loopback TCP addresses with
// kernel-assigned free ports, for tests that spin up a local cluster.
func FreeLocalTCPAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs, nil
}
