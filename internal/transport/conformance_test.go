package transport

// Cross-transport conformance: every interconnect — in-memory, UDP
// with sliding-window flow control, TCP with reconnect — must present
// the same Endpoint semantics (reliable, exactly-once, per-link FIFO
// delivery of logical messages), with and without seeded fault
// injection. The protocol layer is certified separately by the
// top-level protocol conformance suite; this file certifies the
// channel contract those protocols assume.

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/wire"
)

// conformanceSeed fixes the fault schedule for every chaos cell.
const conformanceSeed = 42

// testChaos returns the chaos profile used by the conformance cells:
// DefaultChaos with partitions shortened so endpoint-level tests stay
// fast while still crossing several partition windows.
func testChaos() Chaos {
	c := DefaultChaos(conformanceSeed)
	c.PartitionEvery = 300 * time.Millisecond
	c.PartitionFor = 60 * time.Millisecond
	c.ConnKillEvery = 150 * time.Millisecond
	return c
}

// transportCell builds one matrix cell: n endpoints plus a cleanup.
type transportCell struct {
	name string
	make func(t *testing.T, n int) ([]Endpoint, func())
}

func memCell(chaos bool) transportCell {
	name := "mem"
	if chaos {
		name = "mem+chaos"
	}
	return transportCell{name: name, make: func(t *testing.T, n int) ([]Endpoint, func()) {
		c := NewMemCluster(n, platform.Test(), nil, nil)
		eps := c.Endpoints()
		if chaos {
			eps = WrapEndpoints(eps, testChaos())
		}
		return eps, func() {
			for _, ep := range eps {
				ep.Close()
			}
			c.Close()
		}
	}}
}

func udpCell(chaos bool) transportCell {
	name := "udp"
	if chaos {
		name = "udp+chaos"
	}
	return transportCell{name: name, make: func(t *testing.T, n int) ([]Endpoint, func()) {
		addrs, err := FreeLocalAddrs(n)
		if err != nil {
			t.Fatal(err)
		}
		eps := make([]Endpoint, n)
		for i := 0; i < n; i++ {
			o := UDPOptions{}
			if chaos {
				cc := testChaos()
				o.Chaos = &cc
			}
			ep, err := NewUDPEndpointOptions(i, addrs, o)
			if err != nil {
				t.Fatal(err)
			}
			eps[i] = ep
		}
		return eps, func() {
			for _, ep := range eps {
				ep.Close()
			}
		}
	}}
}

func tcpCell(chaos bool) transportCell {
	name := "tcp"
	if chaos {
		name = "tcp+chaos"
	}
	return transportCell{name: name, make: func(t *testing.T, n int) ([]Endpoint, func()) {
		addrs, err := FreeLocalTCPAddrs(n)
		if err != nil {
			t.Fatal(err)
		}
		eps := make([]Endpoint, n)
		for i := 0; i < n; i++ {
			o := TCPOptions{}
			if chaos {
				cc := testChaos()
				o.Chaos = &cc
			}
			ep, err := NewTCPEndpointOptions(i, addrs, o)
			if err != nil {
				t.Fatal(err)
			}
			eps[i] = ep
		}
		if chaos {
			eps = WrapEndpoints(eps, testChaos())
		}
		return eps, func() {
			for _, ep := range eps {
				ep.Close()
			}
		}
	}}
}

// tcpTLSCell is the TCP cell with every link TLS-encrypted: the same
// endpoint semantics must hold verbatim, including reconnect-and-
// resume under connection kills (each redial re-handshakes).
func tcpTLSCell(chaos bool) transportCell {
	name := "tcp+tls"
	if chaos {
		name = "tcp+tls+chaos"
	}
	return transportCell{name: name, make: func(t *testing.T, n int) ([]Endpoint, func()) {
		tlsCfg, err := SelfSignedTLS()
		if err != nil {
			t.Fatal(err)
		}
		addrs, err := FreeLocalTCPAddrs(n)
		if err != nil {
			t.Fatal(err)
		}
		eps := make([]Endpoint, n)
		for i := 0; i < n; i++ {
			o := TCPOptions{TLS: tlsCfg}
			if chaos {
				cc := testChaos()
				o.Chaos = &cc
			}
			ep, err := NewTCPEndpointOptions(i, addrs, o)
			if err != nil {
				t.Fatal(err)
			}
			eps[i] = ep
		}
		if chaos {
			eps = WrapEndpoints(eps, testChaos())
		}
		return eps, func() {
			for _, ep := range eps {
				ep.Close()
			}
		}
	}}
}

func conformanceCells() []transportCell {
	return []transportCell{
		memCell(false), memCell(true),
		udpCell(false), udpCell(true),
		tcpCell(false), tcpCell(true),
		tcpTLSCell(false), tcpTLSCell(true),
	}
}

// TestConformanceExchange: a request crosses, a reply crosses back,
// payloads and metadata intact.
func TestConformanceExchange(t *testing.T) {
	for _, cell := range conformanceCells() {
		t.Run(cell.name, func(t *testing.T) {
			t.Parallel()
			eps, cleanup := cell.make(t, 2)
			defer cleanup()
			go func() {
				if err := eps[0].Send(wire.Message{Type: wire.TLockReq, To: 1, ReqID: 77, Payload: []byte("ping")}); err != nil {
					t.Error(err)
				}
			}()
			m, ok := recvDeadline(t, eps[1], 30*time.Second)
			if !ok {
				t.Fatal("request never arrived")
			}
			if m.Type != wire.TLockReq || m.From != 0 || m.ReqID != 77 || string(m.Payload) != "ping" {
				t.Fatalf("got %+v", m)
			}
			go eps[1].Send(wire.Message{Type: wire.TLockGrant, To: 0, ReqID: 77, Payload: []byte("pong")})
			r, ok := recvDeadline(t, eps[0], 30*time.Second)
			if !ok || r.Type != wire.TLockGrant || string(r.Payload) != "pong" {
				t.Fatalf("reply: ok=%v %+v", ok, r)
			}
		})
	}
}

// TestConformanceExactlyOnceFIFO: many messages from several senders
// to one receiver must arrive exactly once and in per-sender order,
// even while the chaos cells drop, duplicate, and reorder beneath the
// reliability layers.
func TestConformanceExactlyOnceFIFO(t *testing.T) {
	const nodes = 3
	const per = 60
	for _, cell := range conformanceCells() {
		t.Run(cell.name, func(t *testing.T) {
			t.Parallel()
			eps, cleanup := cell.make(t, nodes)
			defer cleanup()
			var wg sync.WaitGroup
			for s := 1; s < nodes; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						var w wire.Buffer
						w.U32(uint32(i))
						if err := eps[s].Send(wire.Message{Type: wire.TJDiff, To: 0, Payload: w.Bytes()}); err != nil {
							t.Error(err)
							return
						}
					}
				}(s)
			}
			next := map[uint16]uint32{}
			for got := 0; got < (nodes-1)*per; got++ {
				m, ok := recvDeadline(t, eps[0], 60*time.Second)
				if !ok {
					t.Fatalf("receiver closed after %d/%d messages", got, (nodes-1)*per)
				}
				seq := wire.NewReader(m.Payload).U32()
				if want := next[m.From]; seq != want {
					t.Fatalf("sender %d: got seq %d, want %d (duplicate, loss, or reorder leaked through)", m.From, seq, want)
				}
				next[m.From]++
			}
			wg.Wait()
		})
	}
}

// TestConformanceLargeMessage: a multi-fragment payload (several 64 KB
// datagram-equivalents) reassembles losslessly on every transport.
func TestConformanceLargeMessage(t *testing.T) {
	payload := make([]byte, 400<<10) // ~7 fragments
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	for _, cell := range conformanceCells() {
		t.Run(cell.name, func(t *testing.T) {
			t.Parallel()
			eps, cleanup := cell.make(t, 2)
			defer cleanup()
			tc := wire.TraceCtx{Rank: 0, Epoch: 4, Seq: 17} // rides after the payload, in the last fragment
			go func() {
				if err := eps[0].Send(wire.Message{Type: wire.TObjFetchReply, To: 1, Payload: payload, Trace: tc}); err != nil {
					t.Error(err)
				}
			}()
			m, ok := recvDeadline(t, eps[1], 60*time.Second)
			if !ok {
				t.Fatal("large message never arrived")
			}
			if !bytes.Equal(m.Payload, payload) || m.Trace != tc {
				t.Fatal("message corrupted in flight")
			}
		})
	}
}

// TestConformanceSelfSend: a node's messages to itself loop back like
// any other destination.
func TestConformanceSelfSend(t *testing.T) {
	for _, cell := range conformanceCells() {
		t.Run(cell.name, func(t *testing.T) {
			t.Parallel()
			eps, cleanup := cell.make(t, 2)
			defer cleanup()
			go eps[0].Send(wire.Message{Type: wire.TBarrierArrive, To: 0, Payload: []byte("self")})
			m, ok := recvDeadline(t, eps[0], 30*time.Second)
			if !ok || m.From != 0 || string(m.Payload) != "self" {
				t.Fatalf("self-send: ok=%v %+v", ok, m)
			}
			// Several fragments, fed to the same reassembler the network
			// path feeds.
			large := bytes.Repeat([]byte("self"), 50<<10)
			go eps[0].Send(wire.Message{Type: wire.TObjFetchReply, To: 0, Payload: large})
			m, ok = recvDeadline(t, eps[0], 30*time.Second)
			if !ok || m.From != 0 || !bytes.Equal(m.Payload, large) {
				t.Fatalf("large self-send: ok=%v, %d bytes", ok, len(m.Payload))
			}
		})
	}
}

// TestConformanceBadDestAndClose: addressing errors and close
// semantics are uniform across transports.
func TestConformanceBadDestAndClose(t *testing.T) {
	for _, cell := range conformanceCells() {
		t.Run(cell.name, func(t *testing.T) {
			t.Parallel()
			eps, cleanup := cell.make(t, 2)
			defer cleanup()
			if err := eps[0].Send(wire.Message{Type: wire.TLockFree, To: 9}); err != ErrBadDest {
				t.Errorf("bad dest: err = %v, want ErrBadDest", err)
			}
			if eps[0].ID() != 0 || eps[0].N() != 2 || eps[1].ID() != 1 {
				t.Error("ID/N accessors broken")
			}
			eps[1].Close()
			if _, ok := eps[1].Recv(); ok {
				t.Error("Recv after Close should report !ok")
			}
		})
	}
}

// TestConformanceChaosActuallyFires asserts the chaos cells are not
// vacuous: under sustained traffic the fault injector must report
// drops/dups/reorders (and connection kills for TCP).
func TestConformanceChaosActuallyFires(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T, stats *ChaosStats) ([]Endpoint, func())
	}{
		{"mem+chaos", func(t *testing.T, st *ChaosStats) ([]Endpoint, func()) {
			c := NewMemCluster(2, platform.Test(), nil, nil)
			cc := testChaos()
			cc.Stats = st
			eps := WrapEndpoints(c.Endpoints(), cc)
			return eps, func() { eps[0].Close(); eps[1].Close(); c.Close() }
		}},
		{"udp+chaos", func(t *testing.T, st *ChaosStats) ([]Endpoint, func()) {
			addrs, err := FreeLocalAddrs(2)
			if err != nil {
				t.Fatal(err)
			}
			eps := make([]Endpoint, 2)
			for i := range eps {
				cc := testChaos()
				cc.Stats = st
				ep, err := NewUDPEndpointOptions(i, addrs, UDPOptions{Chaos: &cc})
				if err != nil {
					t.Fatal(err)
				}
				eps[i] = ep
			}
			return eps, func() { eps[0].Close(); eps[1].Close() }
		}},
		{"tcp+chaos", func(t *testing.T, st *ChaosStats) ([]Endpoint, func()) {
			addrs, err := FreeLocalTCPAddrs(2)
			if err != nil {
				t.Fatal(err)
			}
			eps := make([]Endpoint, 2)
			for i := range eps {
				cc := testChaos()
				cc.Stats = st
				ep, err := NewTCPEndpointOptions(i, addrs, TCPOptions{Chaos: &cc})
				if err != nil {
					t.Fatal(err)
				}
				eps[i] = ep
			}
			wc := testChaos()
			wc.Stats = st
			eps = WrapEndpoints(eps, wc)
			return eps, func() { eps[0].Close(); eps[1].Close() }
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var st ChaosStats
			eps, cleanup := tc.build(t, &st)
			defer cleanup()
			const msgs = 150
			go func() {
				for i := 0; i < msgs; i++ {
					payload := bytes.Repeat([]byte{byte(i)}, 512)
					if err := eps[0].Send(wire.Message{Type: wire.TJDiff, To: 1, Payload: payload}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			for got := 0; got < msgs; got++ {
				if _, ok := recvDeadline(t, eps[1], 60*time.Second); !ok {
					t.Fatalf("lost messages for good after %d/%d (chaos defeated the reliability layer)", got, msgs)
				}
			}
			if st.Total() == 0 {
				t.Error("chaos cell injected zero faults; the matrix cell is vacuous")
			}
			t.Logf("%s faults: drop=%d dup=%d reorder=%d delay=%d partition=%d connkill=%d",
				tc.name, st.Dropped.Load(), st.Duplicated.Load(), st.Reordered.Load(),
				st.Delayed.Load(), st.Partition.Load(), st.ConnKills.Load())
		})
	}
}

// TestTCPReconnectResumesExactlyOnce kills the live connection in the
// middle of a windowed transfer and checks nothing is lost or doubled.
func TestTCPReconnectResumesExactlyOnce(t *testing.T) {
	addrs, err := FreeLocalTCPAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	e0, err := NewTCPEndpoint(0, addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e0.Close()
	e1, err := NewTCPEndpoint(1, addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()

	const msgs = 200
	go func() {
		for i := 0; i < msgs; i++ {
			var w wire.Buffer
			w.U32(uint32(i))
			if err := e0.Send(wire.Message{Type: wire.TJDiff, To: 1, Payload: w.Bytes()}); err != nil {
				t.Error(err)
				return
			}
			if i%50 == 25 {
				// Sever the live connection mid-stream.
				l := e0.links[1]
				l.mu.Lock()
				conn := l.conn
				l.mu.Unlock()
				if conn != nil {
					conn.Close()
				}
			}
		}
	}()
	for want := uint32(0); want < msgs; want++ {
		m, ok := recvDeadline(t, e1, 30*time.Second)
		if !ok {
			t.Fatalf("stream died at %d/%d", want, msgs)
		}
		if got := wire.NewReader(m.Payload).U32(); got != want {
			t.Fatalf("got seq %d, want %d after reconnect", got, want)
		}
	}
}

// TestUDPForgedAckDoesNotWedgeWindow feeds the sender an ack beyond
// anything it transmitted (as a corrupt datagram would) and checks the
// channel still moves traffic afterwards. Regression for the unsigned
// window arithmetic wedging on ackedTo > nextSeq. The byte accounting
// must come through as well: a forged ack neither sets the byte window
// nor lets inFlyBytes drift from the frames actually in flight.
func TestUDPForgedAckDoesNotWedgeWindow(t *testing.T) {
	addrs, err := FreeLocalAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	e0, err := NewUDPEndpoint(0, addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e0.Close()
	e1, err := NewUDPEndpoint(1, addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()

	// Forge an absurd cumulative ack from node 1 before any traffic.
	e0.handleAck(1, 1<<30, 0, ^uint32(0))
	ss := e0.sendsts[1]
	ss.mu.Lock()
	share := ss.peerShare
	ss.mu.Unlock()
	if share != 0 {
		t.Fatalf("forged ack set the byte window to %d", share)
	}
	checkBytes := func(when string) {
		t.Helper()
		if inFly, _, table := e0.byteWindow(1); inFly != table {
			t.Fatalf("%s: inFlyBytes = %d, frames in flight sum to %d", when, inFly, table)
		}
	}
	checkBytes("after forged ack")

	// The window must still admit and deliver a windowed transfer.
	payload := make([]byte, 3<<20) // ~48 fragments, beyond one window
	for i := range payload {
		payload[i] = byte(i)
	}
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		if err := e0.Send(wire.Message{Type: wire.TObjFetchReply, To: 1, Payload: payload}); err != nil {
			t.Error(err)
		}
	}()
	for sending := true; sending; {
		select {
		case <-sent:
			sending = false
		default:
			checkBytes("mid-transfer")
		}
	}
	m, ok := recvDeadline(t, e1, 30*time.Second)
	if !ok {
		t.Fatal("transfer wedged after forged ack")
	}
	if !bytes.Equal(m.Payload, payload) {
		t.Fatal("payload corrupted after forged ack")
	}
	if err := e0.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	checkBytes("after transfer")
}

// TestUDPCloseWakesWindowBlockedSender: closing an endpoint while a
// Send is parked on a full window must fail the Send, not deadlock it.
// Regression for Close not broadcasting the window condvars.
func TestUDPCloseWakesWindowBlockedSender(t *testing.T) {
	addrs, err := FreeLocalAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	e0, err := NewUDPEndpoint(0, addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// No peer endpoint: nothing ever acks, so a large send fills the
	// window and parks.
	errc := make(chan error, 1)
	go func() {
		errc <- e0.Send(wire.Message{Type: wire.TObjFetchReply, To: 1, Payload: make([]byte, 4<<20)})
	}()
	time.Sleep(100 * time.Millisecond) // let the sender hit the window
	e0.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("blocked Send returned nil after Close")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Send still blocked after Close (window condvar never woken)")
	}
}

// TestTCPHostileHelloDoesNotPanic connects raw to the listener and
// sends a well-framed hello whose rank has the high bit set; the
// uint64->int conversion must not slip past the range check into a
// negative slice index. The endpoint must drop the conn and keep
// serving real peers.
func TestTCPHostileHelloDoesNotPanic(t *testing.T) {
	addrs, err := FreeLocalTCPAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	e0, err := NewTCPEndpoint(0, addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e0.Close()
	e1, err := NewTCPEndpoint(1, addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()

	for _, rank := range []uint64{1 << 63, uint64(len(addrs)), ^uint64(0)} {
		conn, err := net.Dial("tcp", addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(makeTCPFrame(tcpHello, rank, nil)); err != nil {
			t.Fatal(err)
		}
		// The endpoint must reject by closing; a panic would kill it.
		conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
		buf := make([]byte, 1)
		if _, err := conn.Read(buf); err == nil {
			t.Errorf("rank %#x: got a hello-ack for an out-of-range rank", rank)
		}
		conn.Close()
	}

	// Real traffic still flows after the hostile hellos.
	go e1.Send(wire.Message{Type: wire.TLockFree, To: 0, Payload: []byte("alive")}) //nolint:errcheck
	m, ok := recvDeadline(t, e0, 30*time.Second)
	if !ok || string(m.Payload) != "alive" {
		t.Fatalf("endpoint dead after hostile hello: ok=%v %+v", ok, m)
	}
}

// TestUDPHeavyChaosTorture pushes the sliding-window path well past
// the matrix defaults — a quarter of all datagrams lost, a quarter
// duplicated, 40% reordered — and checks a windowed multi-fragment
// transfer plus a message stream still arrive exactly once, in order.
func TestUDPHeavyChaosTorture(t *testing.T) {
	addrs, err := FreeLocalAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	cc := Chaos{
		Seed:     99,
		Drop:     0.25,
		Dup:      0.25,
		Reorder:  0.40,
		DelayMax: 500 * time.Microsecond,
	}
	eps := make([]Endpoint, 2)
	for i := range eps {
		ccc := cc
		ep, err := NewUDPEndpointOptions(i, addrs, UDPOptions{Chaos: &ccc, rto: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	defer eps[0].Close()
	defer eps[1].Close()

	payload := make([]byte, 1<<20) // ~16 fragments through a 32 window
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	go func() {
		if err := eps[0].Send(wire.Message{Type: wire.TObjFetchReply, To: 1, Payload: payload}); err != nil {
			t.Error(err)
		}
		for i := 0; i < 80; i++ {
			var w wire.Buffer
			w.U32(uint32(i))
			if err := eps[0].Send(wire.Message{Type: wire.TJDiff, To: 1, Payload: w.Bytes()}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	m, ok := recvDeadline(t, eps[1], 120*time.Second)
	if !ok || !bytes.Equal(m.Payload, payload) {
		t.Fatal("large transfer corrupted or lost under heavy chaos")
	}
	for want := uint32(0); want < 80; want++ {
		m, ok := recvDeadline(t, eps[1], 120*time.Second)
		if !ok {
			t.Fatalf("stream died at %d/80", want)
		}
		if got := wire.NewReader(m.Payload).U32(); got != want {
			t.Fatalf("got %d, want %d (dup/reorder leaked through the window)", got, want)
		}
	}
}

func recvDeadline(t *testing.T, e Endpoint, d time.Duration) (wire.Message, bool) {
	t.Helper()
	type res struct {
		m  wire.Message
		ok bool
	}
	ch := make(chan res, 1)
	go func() {
		m, ok := e.Recv()
		ch <- res{m, ok}
	}()
	select {
	case r := <-ch:
		return r.m, r.ok
	case <-time.After(d):
		t.Fatal("Recv timed out")
		return wire.Message{}, false
	}
}

// TestChaosDeterministicSchedule: two chaos wrappers with the same
// seed over the same traffic must inject the same fault sequence
// (drop/dup/reorder decisions, not wall-clock timings).
func TestChaosDeterministicSchedule(t *testing.T) {
	run := func() (int64, int64, int64) {
		c := NewMemCluster(2, platform.Test(), nil, nil)
		defer c.Close()
		cc := DefaultChaos(7)
		cc.DelayMax = 0 // timing out of the picture; decisions only
		cc.PartitionEvery = 0
		var st ChaosStats
		cc.Stats = &st
		eps := WrapEndpoints(c.Endpoints(), cc)
		defer eps[0].Close()
		const msgs = 300
		go func() {
			for i := 0; i < msgs; i++ {
				eps[0].Send(wire.Message{Type: wire.TLockFree, To: 1, Payload: []byte{byte(i)}}) //nolint:errcheck
			}
		}()
		for i := 0; i < msgs; i++ {
			if _, ok := eps[1].Recv(); !ok {
				t.Fatal("stream closed early")
			}
		}
		return st.Dropped.Load(), st.Duplicated.Load(), st.Reordered.Load()
	}
	d1, u1, r1 := run()
	d2, u2, r2 := run()
	if d1 != d2 || u1 != u2 || r1 != r2 {
		t.Errorf("fault schedule not deterministic: (%d,%d,%d) vs (%d,%d,%d)", d1, u1, r1, d2, u2, r2)
	}
	if d1+u1+r1 == 0 {
		t.Error("no faults fired; determinism check is vacuous")
	}
}

// TestChaosDrainDeliversEverythingQueued: Drain on a chaos-wrapped
// endpoint returns only once every message its pumps held has reached
// the peer, and Send has copied the payload by the time it returns (the
// coalescer recycles its batch slab right after Send).
func TestChaosDrainDeliversEverythingQueued(t *testing.T) {
	c := NewMemCluster(2, platform.Test(), nil, nil)
	defer c.Close()
	cc := DefaultChaos(42)
	cc.PartitionEvery = 0
	eps := WrapEndpoints(c.Endpoints(), cc)
	const msgs = 40
	buf := make([]byte, 8)
	for i := 0; i < msgs; i++ {
		binary.LittleEndian.PutUint64(buf, uint64(i))
		if err := eps[0].Send(wire.Message{Type: wire.TLockFree, To: 1, Payload: buf}); err != nil {
			t.Fatal(err)
		}
	}
	binary.LittleEndian.PutUint64(buf, ^uint64(0)) // a retained payload would now read as this
	if err := eps[0].Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Everything is in the peer's mailbox: closing the sender (which
	// drops whatever its pumps still hold) must lose nothing.
	if err := eps[0].Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < msgs; i++ {
		m, ok := recvDeadline(t, eps[1], 5*time.Second)
		if !ok {
			t.Fatalf("stream closed after %d of %d messages", i, msgs)
		}
		if got := binary.LittleEndian.Uint64(m.Payload); got != uint64(i) {
			t.Fatalf("message %d carries %d: payload not copied at Send, or link not FIFO", i, got)
		}
	}
}
