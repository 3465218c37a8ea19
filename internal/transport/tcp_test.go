package transport

// TCP per-frame cost: buffered reads, gathered writes and coalesced
// acks. These tests pin the ack policy (one cumulative ack per
// tcpAckEvery frames, or on request), that Drain asks for the ack it
// waits on, that late acks leave reconnect-and-resume exactly-once,
// and that the frame reader neither allocates nor trusts a length
// claim.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// tcpPair returns two connected TCP endpoints, closed at test end.
func tcpPair(t *testing.T) (*TCPEndpoint, *TCPEndpoint) {
	t.Helper()
	addrs, err := FreeLocalTCPAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]*TCPEndpoint, 2)
	for i := range eps {
		if eps[i], err = NewTCPEndpoint(i, addrs, nil); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eps[i].Close() })
	}
	return eps[0], eps[1]
}

// sendSeq sends one message carrying i to node to.
func sendSeq(t *testing.T, e Endpoint, to uint16, i int) {
	t.Helper()
	var w wire.Buffer
	w.U32(uint32(i))
	if err := e.Send(wire.Message{Type: wire.TJDiff, To: to, Payload: w.Bytes()}); err != nil {
		t.Fatal(err)
	}
}

// recvSeq receives the next message and checks it carries want.
func recvSeq(t *testing.T, e Endpoint, want int) {
	t.Helper()
	m, ok := recvDeadline(t, e, 30*time.Second)
	if !ok {
		t.Fatalf("receiver closed waiting for message %d", want)
	}
	if got := wire.NewReader(m.Payload).U32(); got != uint32(want) {
		t.Fatalf("got message %d, want %d (loss, duplicate or reorder)", got, want)
	}
}

// TestTCPAcksCoalesce plays a sender by hand: hello, then 1,000
// one-fragment data frames, then one ack request. The receiver must
// answer with one cumulative ack per 32 frames plus the requested one —
// not an ack per frame — and deliver every message in order.
func TestTCPAcksCoalesce(t *testing.T) {
	addrs, err := FreeLocalTCPAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	e0, err := NewTCPEndpoint(0, addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e0.Close()
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	if _, err := conn.Write(makeTCPFrame(tcpHello, 1, nil)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if kind, resume, _, err := readTCPFrame(br, nil); err != nil || kind != tcpHelloAck || resume != 0 {
		t.Fatalf("handshake: kind %d resume %d err %v", kind, resume, err)
	}

	const frames = 1000
	var seq uint64
	for i := 0; i < frames; i++ {
		var w wire.Buffer
		w.U32(uint32(i))
		m := wire.Message{Type: wire.TJDiff, From: 1, To: 0, Payload: w.Bytes()}
		err := wire.FragmentMessage(m, uint64(i+1)<<16|1, tcpFrameHeadroom, func(f []byte) error {
			binary.LittleEndian.PutUint32(f, uint32(len(f)-4))
			f[4] = tcpData
			binary.LittleEndian.PutUint64(f[5:], seq)
			seq++
			_, err := conn.Write(f)
			wire.PutSlab(f)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if seq != frames {
		t.Fatalf("%d messages took %d frames, want one each", frames, seq)
	}
	if _, err := conn.Write(tcpAckReqFrame); err != nil {
		t.Fatal(err)
	}
	acks := 0
	for ackTo := uint64(0); ackTo < frames; {
		kind, to, _, err := readTCPFrame(br, nil)
		if err != nil {
			t.Fatalf("after %d acks: %v", acks, err)
		}
		if kind != tcpAck || to < ackTo {
			t.Fatalf("ack %d: kind %d, ack point %d after %d", acks, kind, to, ackTo)
		}
		acks++
		ackTo = to
	}
	if limit := frames/32 + 1; acks > limit { // an ack per 32 frames, plus the requested one
		t.Errorf("%d acks for %d frames, want at most %d", acks, frames, limit)
	}
	for i := 0; i < frames; i++ {
		recvSeq(t, e0, i)
	}
}

// TestTCPDrainAsksForAck: fewer than tcpAckEvery frames earn no ack on
// their own, so Drain must ask for one, and it comes back at once.
func TestTCPDrainAsksForAck(t *testing.T) {
	e0, e1 := tcpPair(t)
	// Bring the link up first, so the timing below is the ack's alone.
	sendSeq(t, e0, 1, 0)
	recvSeq(t, e1, 0)
	if err := e0.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < tcpAckEvery; i++ {
		sendSeq(t, e0, 1, i)
	}
	if err := e0.Drain(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	l := e0.links[1]
	l.mu.Lock()
	n := len(l.unacked)
	l.mu.Unlock()
	if n != 0 {
		t.Fatalf("Drain returned with %d frames unacked", n)
	}
	for i := 1; i < tcpAckEvery; i++ {
		recvSeq(t, e1, i)
	}
}

// TestTCPKillWithDeliveredUnackedFrames severs the connection while
// tcpAckEvery-1 frames are delivered but not yet acknowledged. The
// reconnect's resume point must retire them: every message arrives
// exactly once and in order.
func TestTCPKillWithDeliveredUnackedFrames(t *testing.T) {
	e0, e1 := tcpPair(t)
	const burst = tcpAckEvery - 1
	for i := 0; i < burst; i++ {
		sendSeq(t, e0, 1, i)
	}
	for i := 0; i < burst; i++ {
		recvSeq(t, e1, i)
	}
	l := e0.links[1]
	l.mu.Lock()
	conn, n := l.conn, len(l.unacked)
	l.mu.Unlock()
	if n != burst {
		t.Fatalf("%d frames unacked before the kill, want %d", n, burst)
	}
	conn.Close()
	for i := burst; i < 2*burst; i++ {
		sendSeq(t, e0, 1, i)
	}
	for i := burst; i < 2*burst; i++ {
		recvSeq(t, e1, i)
	}
	if err := e0.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestReadTCPFrameAllocs: reading a data frame through a bufio.Reader
// into a reused buffer allocates nothing.
func TestReadTCPFrameAllocs(t *testing.T) {
	const runs = 200
	payload := bytes.Repeat([]byte{7}, 50)
	stream := bytes.Repeat(makeTCPFrame(tcpData, 3, payload), runs+1)
	br := bufio.NewReaderSize(bytes.NewReader(stream), tcpDataReadBuf)
	buf := make([]byte, 0, 1<<10)
	allocs := testing.AllocsPerRun(runs, func() {
		kind, seq, got, err := readTCPFrame(br, buf)
		if err != nil || kind != tcpData || seq != 3 || !bytes.Equal(got, payload) {
			t.Fatalf("kind %d seq %d payload %d bytes, err %v", kind, seq, len(got), err)
		}
	})
	if allocs != 0 {
		t.Errorf("readTCPFrame: %v allocations per frame, want 0", allocs)
	}
}

// TestReadTCPFrameLengthBounds: a length claim below the frame header
// or above tcpMaxFrame is rejected, and the two bounds themselves are
// accepted.
func TestReadTCPFrameLengthBounds(t *testing.T) {
	claim := func(n uint32) []byte {
		b := binary.LittleEndian.AppendUint32(nil, n)
		return append(b, make([]byte, tcpMaxFrame)...)
	}
	for _, n := range []uint32{0, tcpFrameHeaderLen - 1, tcpMaxFrame + 1, ^uint32(0)} {
		if _, _, _, err := readTCPFrame(bufio.NewReader(bytes.NewReader(claim(n))), nil); err == nil {
			t.Errorf("length %d accepted", n)
		}
	}
	for _, n := range []uint32{tcpFrameHeaderLen, tcpMaxFrame} {
		_, _, p, err := readTCPFrame(bufio.NewReader(bytes.NewReader(claim(n))), nil)
		if err != nil || len(p) != int(n)-tcpFrameHeaderLen {
			t.Errorf("length %d: %d payload bytes, err %v", n, len(p), err)
		}
	}
}

// FuzzTCPFrameRead feeds arbitrary stream bytes through the frame
// reader until it stops: it must never panic, and no payload it returns
// may exceed what tcpMaxFrame allows.
func FuzzTCPFrameRead(f *testing.F) {
	f.Add([]byte{})
	f.Add(makeTCPFrame(tcpHello, 1, nil))
	f.Add(append(makeTCPFrame(tcpData, 3, []byte("fragment")), tcpAckReqFrame...))
	f.Add(makeTCPFrame(tcpAck, 9, nil)[:7]) // cut inside the header
	f.Add(makeTCPFrame(tcpData, 0, make([]byte, 100))[:50])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, tcpData})
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReaderSize(bytes.NewReader(data), tcpAckReadBuf)
		buf := make([]byte, 0, 1<<10)
		for {
			_, _, payload, err := readTCPFrame(br, buf)
			if err != nil {
				return
			}
			if len(payload) > tcpMaxFrame-tcpFrameHeaderLen {
				t.Fatalf("payload of %d bytes, above the %d a frame may carry", len(payload), tcpMaxFrame-tcpFrameHeaderLen)
			}
		}
	})
}

// discardConn is a connection whose writes all succeed and go nowhere.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error) { return len(b), nil }

// TestTCPFrameCycleAllocations: in steady state a data frame's whole
// life on the sender — enqueued, written by a write pass, acknowledged —
// allocates nothing: its buffer comes from the slab pool, its pframe
// from pframePool, and the window's array is reused.
func TestTCPFrameCycleAllocations(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's sync.Pool drops pframes at random")
	}
	l := &tcpSendLink{to: 1, conn: discardConn{}}
	l.cond = sync.NewCond(&l.mu)
	wb := newTCPWriteBuf()
	const frameLen = tcpFrameHeadroom + 50
	cycle := func() {
		if err := l.enqueue(wire.GetSlab(frameLen)[:frameLen]); err != nil {
			t.Fatal(err)
		}
		if !l.writePass(wb) {
			t.Fatal("link closed")
		}
		l.mu.Lock()
		l.ackLocked(l.nextSeq)
		n := len(l.unacked)
		l.mu.Unlock()
		if n != 0 {
			t.Fatalf("%d frames unacked after the ack", n)
		}
	}
	cycle()
	if got := testing.AllocsPerRun(200, cycle); got != 0 {
		t.Errorf("a frame's enqueue, write and ack allocate %v times, want 0", got)
	}
}
