package transport

// Regression and behaviour tests for the UDP window's flow control:
// the adaptive RTO + SACK machinery, plus the three audited bugs —
// unbounded out-of-order buffering, inconsistent receive byte
// accounting, and the busy-spinning read loop.

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/wire"
)

// newUDPPair builds two connected UDP endpoints with the given options
// applied to both (counters are per-endpoint).
func newUDPPair(t *testing.T, o UDPOptions) (*UDPEndpoint, *UDPEndpoint, [2]*stats.Counters) {
	t.Helper()
	addrs, err := FreeLocalAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	var counters [2]*stats.Counters
	eps := make([]*UDPEndpoint, 2)
	for i := range eps {
		counters[i] = &stats.Counters{}
		oi := o
		oi.Counters = counters[i]
		if o.Chaos != nil {
			cc := *o.Chaos
			oi.Chaos = &cc
		}
		ep, err := NewUDPEndpointOptions(i, addrs, oi)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
		t.Cleanup(func() { ep.Close() })
	}
	return eps[0], eps[1], counters
}

// TestUDPOOOBufferBounded injects data frames far beyond the receive
// window, as a hostile or wildly reordering peer could, and checks the
// out-of-order buffer never grows past the window. Regression for
// handleData accepting any seq >= expected into rs.ooo. The frames are
// handed over as the read loop hands them — the whole datagram in its
// read slab — so with slab poison on the test also sees who owns each
// slab afterwards: a buffered datagram is intact, a refused one has gone
// back to the pool.
func TestUDPOOOBufferBounded(t *testing.T) {
	e0, _, _ := newUDPPair(t, UDPOptions{})
	win := int(e0.window)
	wire.SetSlabPoison(true)
	defer wire.SetSlabPoison(false)
	// seq 0 is never delivered, so nothing drains and every accepted
	// fragment stays buffered.
	dgrams := make(map[uint32][]byte)
	for seq := uint32(1); seq < uint32(win*10); seq++ {
		d := append(wire.GetSlab(wire.MaxDatagram)[:flowHeaderLen], byte(seq), 0x55)
		dgrams[seq] = d
		e0.handleData(1, seq, d)
	}
	rs := e0.recvsts[1]
	rs.mu.Lock()
	got, hw := len(rs.ooo), rs.oooHW
	for seq, d := range dgrams {
		want := []byte{0xDB, 0xDB} // refused: released, so poisoned
		if int(seq) < win {
			want = []byte{byte(seq), 0x55} // buffered: still the endpoint's, untouched
		}
		if !bytes.Equal(d[flowHeaderLen:], want) {
			t.Errorf("seq %d: datagram reads %x after hand-over, want %x", seq, d[flowHeaderLen:], want)
		}
	}
	rs.mu.Unlock()
	if got > win || hw > win {
		t.Fatalf("ooo buffer grew to %d (high water %d), want <= window %d", got, hw, win)
	}
	if got != win-1 {
		// seqs 1..win-1 are inside the window and must still buffer.
		t.Errorf("in-window fragments buffered = %d, want %d", got, win-1)
	}
	// The channel still works: deliver the missing prefix and the rest
	// of a real message stream.
	m := wire.Message{Type: wire.TAck, From: 1, To: 0, Payload: []byte("ok")}
	rs.mu.Lock()
	rs.ooo = make(map[uint32][]byte)
	rs.expected = 0
	rs.mu.Unlock()
	seq := uint32(0)
	_ = wire.FragmentMessage(m, 7, flowHeaderLen, func(f []byte) error {
		e0.handleData(1, seq, f)
		seq++
		return nil
	})
	got2, ok := recvTimeout(t, e0, 5*time.Second)
	if !ok || string(got2.Payload) != "ok" {
		t.Fatalf("channel dead after out-of-window flood: ok=%v %+v", ok, got2)
	}
}

// TestUDPReadLoopBacksOffOnPersistentError forces every socket read to
// fail (a read deadline in the past) and checks the read loop backs
// off instead of busy-spinning at 100% CPU, then exits cleanly on
// Close. Regression for the unconditional `continue` on read errors.
func TestUDPReadLoopBacksOffOnPersistentError(t *testing.T) {
	addrs, err := FreeLocalAddrs(1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewUDPEndpoint(0, addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.conn.SetReadDeadline(time.Now().Add(-time.Second)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	errs := e.readErrs.Load()
	if errs == 0 {
		t.Fatal("read loop never observed the failing socket")
	}
	// A busy-spinning loop racks up millions of failures in 500ms; the
	// exponential backoff caps it at a few dozen.
	if errs > 100 {
		t.Fatalf("read loop spun %d times in 500ms; backoff is not working", errs)
	}
	e.Close()
	select {
	case <-e.readDone:
	case <-time.After(5 * time.Second):
		t.Fatal("read loop did not exit after Close")
	}
}

// TestReceiveByteAccountingConsistent pins the single definition of
// per-message byte accounting — the encoded wire length — across all
// three transports and both loopback and socket paths: after a mixed
// workload drains, every receiver's BytesRecv equals the sender's
// BytesSent. Regression for the UDP/TCP socket paths counting payload
// length while the loopback and mem paths counted encoded length.
func TestReceiveByteAccountingConsistent(t *testing.T) {
	payloads := [][]byte{nil, []byte("x"), bytes.Repeat([]byte{0xEE}, 70<<10), []byte("tail")}
	var wantBytes int64
	for _, p := range payloads {
		wantBytes += int64(wire.EncodedLen(wire.Message{Payload: p}))
	}
	run := func(t *testing.T, eps []Endpoint, counters [2]*stats.Counters) {
		t.Helper()
		go func() {
			for _, p := range payloads {
				if err := eps[0].Send(wire.Message{Type: wire.TJDiff, To: 1, Payload: p}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for range payloads {
			if _, ok := recvTimeout(t, eps[1], 30*time.Second); !ok {
				t.Fatal("message lost")
			}
		}
		sent, recv := counters[0].BytesSent.Load(), counters[1].BytesRecv.Load()
		if sent != wantBytes || recv != wantBytes {
			t.Fatalf("BytesSent=%d BytesRecv=%d, want both %d (encoded length)", sent, recv, wantBytes)
		}
		// The loopback path must use the same definition.
		lb := wire.Message{Type: wire.TAck, To: 0, Payload: []byte("self")}
		before := counters[0].BytesRecv.Load()
		if err := eps[0].Send(lb); err != nil {
			t.Fatal(err)
		}
		if _, ok := recvTimeout(t, eps[0], 30*time.Second); !ok {
			t.Fatal("self-send lost")
		}
		if got := counters[0].BytesRecv.Load() - before; got != int64(wire.EncodedLen(lb)) {
			t.Fatalf("loopback BytesRecv delta = %d, want %d", got, wire.EncodedLen(lb))
		}
	}
	t.Run("udp", func(t *testing.T) {
		e0, e1, counters := newUDPPair(t, UDPOptions{})
		run(t, []Endpoint{e0, e1}, counters)
	})
	t.Run("tcp", func(t *testing.T) {
		addrs, err := FreeLocalTCPAddrs(2)
		if err != nil {
			t.Fatal(err)
		}
		var counters [2]*stats.Counters
		eps := make([]Endpoint, 2)
		for i := range eps {
			counters[i] = &stats.Counters{}
			ep, err := NewTCPEndpointOptions(i, addrs, TCPOptions{Counters: counters[i]})
			if err != nil {
				t.Fatal(err)
			}
			eps[i] = ep
			t.Cleanup(func() { ep.Close() })
		}
		run(t, eps, counters)
	})
	t.Run("mem", func(t *testing.T) {
		counters := [2]*stats.Counters{{}, {}}
		c := NewMemCluster(2, platform.Test(), counters[:], nil)
		t.Cleanup(c.Close)
		run(t, c.Endpoints(), counters)
	})
}

// TestUDPSACKAndFastRetransmit drives handleAck directly: selective
// acks must release exactly the named fragments from the in-flight
// set, and the third duplicate cumulative ack must fast-retransmit the
// first hole exactly once.
func TestUDPSACKAndFastRetransmit(t *testing.T) {
	addrs, err := FreeLocalAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	// Bind the peer address with a raw socket that never replies, so
	// the endpoint's frames leave cleanly but no real acks interfere.
	peerAddr, err := net.ResolveUDPAddr("udp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	sink, err := net.ListenUDP("udp", peerAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	counters := &stats.Counters{}
	e0, err := NewUDPEndpointOptions(0, addrs, UDPOptions{
		Counters: counters,
		// Park the retransmission clock so only handleAck acts.
		RTO: time.Hour, MinRTO: time.Hour, MaxRTO: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e0.Close()

	// The sink never advertises a byte window; grant one by hand, or the
	// channel would hold the second message until the first is acked.
	e0.handleAck(1, 0, 0, 1<<20)

	// Six single-fragment messages -> seqs 0..5 in flight to node 1.
	for i := 0; i < 6; i++ {
		if err := e0.Send(wire.Message{Type: wire.TJDiff, To: 1, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	ss := e0.sendsts[1]

	// Cumulative ack to 3, SACK for seq 5 (bit i covers ack+1+i, so
	// seq 5 is bit 1): 0,1,2 acked, 5 selectively acked, 3,4 remain.
	e0.handleAck(1, 3, 1<<1, 1<<20)
	ss.mu.Lock()
	ackedTo, n34 := ss.ackedTo, len(ss.inFly)
	_, has3 := ss.inFly[3]
	_, has4 := ss.inFly[4]
	_, has5 := ss.inFly[5]
	ss.mu.Unlock()
	if ackedTo != 3 || n34 != 2 || !has3 || !has4 || has5 {
		t.Fatalf("after ack=3 sack={5}: ackedTo=%d inFly=%d has3=%v has4=%v has5=%v",
			ackedTo, n34, has3, has4, has5)
	}
	if s := counters.RTTSamples.Load(); s == 0 {
		t.Error("cumulative+selective acks produced no RTT samples")
	}

	// Three duplicate cumulative acks at 3 -> fast retransmit of seq 3,
	// exactly once (the fourth duplicate must not re-fire).
	for i := 0; i < 4; i++ {
		e0.handleAck(1, 3, 0, 1<<20)
	}
	if fr := counters.FastRetrans.Load(); fr != 1 {
		t.Fatalf("FastRetrans = %d, want exactly 1", fr)
	}
	if rt := counters.FragsRetrans.Load(); rt != 1 {
		t.Fatalf("FragsRetrans = %d, want 1 (the fast retransmit)", rt)
	}
	ss.mu.Lock()
	retx := ss.inFly[3] != nil && ss.inFly[3].retx
	ss.mu.Unlock()
	if !retx {
		t.Error("fast-retransmitted frame not marked retx (Karn's rule would sample an ambiguous ack)")
	}
}

// TestUDPAdaptiveRTOAdaptsToCleanLink checks that on a loopback link
// the measured RTO collapses from the 50ms initial value to the
// (clamped) few-millisecond floor, so clean-link retransmissions no
// longer stall for a fixed 50ms.
func TestUDPAdaptiveRTOAdaptsToCleanLink(t *testing.T) {
	e0, e1, counters := newUDPPair(t, UDPOptions{})
	go func() {
		for i := 0; i < 100; i++ {
			if err := e0.Send(wire.Message{Type: wire.TJDiff, To: 1, Payload: []byte{byte(i)}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 100; i++ {
		if _, ok := recvTimeout(t, e1, 30*time.Second); !ok {
			t.Fatal("stream died")
		}
	}
	ss := e0.sendsts[1]
	ss.mu.Lock()
	srtt, rto := ss.srtt, ss.rto
	ss.mu.Unlock()
	if srtt <= 0 {
		t.Fatal("no SRTT was ever measured on a busy clean link")
	}
	if rto <= 0 || rto >= defaultRTO {
		t.Fatalf("adaptive RTO = %v, want measured value below the %v initial", rto, defaultRTO)
	}
	if s := counters[0].RTTSamples.Load(); s == 0 {
		t.Error("RTTSamples counter never advanced")
	}
	t.Logf("clean link: srtt=%v rto=%v samples=%d", srtt, rto, counters[0].RTTSamples.Load())
}

// TestUDPRetransmissionShareUnderLoss runs a windowed bulk transfer
// followed by an ordered stream under seeded 10% drop + 10% reorder
// and bounds what recovery costs: selective acks keep retransmitted
// fragments to a fraction of those sent (measured 0.12-0.19; resending
// every timed-out fragment of the window measured 0.67-0.83 on this
// workload), and fast retransmit must be doing part of the work.
func TestUDPRetransmissionShareUnderLoss(t *testing.T) {
	const (
		bigMsgs   = 12
		bigSize   = 512 << 10 // 8 fragments each
		smallMsgs = 200
	)
	cc := Chaos{Seed: 1, Drop: 0.10, Reorder: 0.10, DelayMax: 200 * time.Microsecond}
	e0, e1, counters := newUDPPair(t, UDPOptions{Chaos: &cc, RTO: 15 * time.Millisecond})
	payload := make([]byte, bigSize)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	go func() {
		for i := 0; i < bigMsgs; i++ {
			if err := e0.Send(wire.Message{Type: wire.TObjFetchReply, To: 1, Payload: payload}); err != nil {
				t.Error(err)
				return
			}
		}
		for i := 0; i < smallMsgs; i++ {
			var w wire.Buffer
			w.U32(uint32(i))
			if err := e0.Send(wire.Message{Type: wire.TJDiff, To: 1, Payload: w.Bytes()}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < bigMsgs; i++ {
		m, ok := recvTimeout(t, e1, 120*time.Second)
		if !ok || !bytes.Equal(m.Payload, payload) {
			t.Fatalf("large transfer %d/%d corrupted or lost", i, bigMsgs)
		}
	}
	for want := uint32(0); want < smallMsgs; want++ {
		m, ok := recvTimeout(t, e1, 120*time.Second)
		if !ok {
			t.Fatalf("stream died at %d/%d", want, smallMsgs)
		}
		if got := wire.NewReader(m.Payload).U32(); got != want {
			t.Fatalf("got %d, want %d", got, want)
		}
	}
	sent, retrans, fast := counters[0].FragsSent.Load(), counters[0].FragsRetrans.Load(), counters[0].FastRetrans.Load()
	t.Logf("frags=%d retrans=%d fast=%d share=%.3f", sent, retrans, fast, float64(retrans)/float64(sent))
	if float64(retrans) >= 0.25*float64(sent) {
		t.Errorf("retransmitted %d of %d fragments, want a share below 0.25", retrans, sent)
	}
	if fast == 0 {
		t.Error("no fast retransmit under 10% loss: duplicate acks are not healing holes")
	}
}

// TestUDPConfigurableWindow runs a multi-fragment transfer through
// deliberately tiny windows; correctness must not depend on the
// default window size.
func TestUDPConfigurableWindow(t *testing.T) {
	for _, win := range []int{1, 2, 5} {
		e0, e1, _ := newUDPPair(t, UDPOptions{Window: win})
		if e0.window != uint32(win) {
			t.Fatalf("window = %d, want %d", e0.window, win)
		}
		payload := make([]byte, 600<<10) // ~10 fragments
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		go func() {
			if err := e0.Send(wire.Message{Type: wire.TObjFetchReply, To: 1, Payload: payload}); err != nil {
				t.Error(err)
			}
		}()
		m, ok := recvTimeout(t, e1, 60*time.Second)
		if !ok || !bytes.Equal(m.Payload, payload) {
			t.Fatalf("window=%d: transfer corrupted or lost", win)
		}
	}
}

// TestUDPExtremeReorderSoakBoundedOOO is the chaos soak: under extreme
// seeded reordering (plus drop and duplication) a sustained workload
// must deliver exactly once, in order, while the receiver's
// out-of-order buffer stays within the window bound throughout.
func TestUDPExtremeReorderSoakBoundedOOO(t *testing.T) {
	cc := Chaos{
		Seed:     1234,
		Drop:     0.05,
		Dup:      0.25,
		Reorder:  0.50,
		DelayMax: 500 * time.Microsecond,
	}
	e0, e1, counters := newUDPPair(t, UDPOptions{Chaos: &cc, RTO: 10 * time.Millisecond})
	const msgs = 200
	payload := make([]byte, 1<<20) // ~16 fragments, crosses the window
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	go func() {
		if err := e0.Send(wire.Message{Type: wire.TObjFetchReply, To: 1, Payload: payload}); err != nil {
			t.Error(err)
		}
		for i := 0; i < msgs; i++ {
			var w wire.Buffer
			w.U32(uint32(i))
			if err := e0.Send(wire.Message{Type: wire.TJDiff, To: 1, Payload: w.Bytes()}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	m, ok := recvTimeout(t, e1, 120*time.Second)
	if !ok || !bytes.Equal(m.Payload, payload) {
		t.Fatal("large transfer corrupted or lost under extreme reordering")
	}
	for want := uint32(0); want < msgs; want++ {
		m, ok := recvTimeout(t, e1, 120*time.Second)
		if !ok {
			t.Fatalf("stream died at %d/%d", want, msgs)
		}
		if got := wire.NewReader(m.Payload).U32(); got != want {
			t.Fatalf("got %d, want %d (dup/reorder leaked through)", got, want)
		}
	}
	hw := e1.oooHighWater(0)
	if hw > int(e1.window) {
		t.Fatalf("ooo high water %d exceeded window %d under reordering soak", hw, e1.window)
	}
	t.Logf("soak: ooo high water %d/%d, retrans=%d fast=%d rtt_samples=%d",
		hw, e1.window, counters[0].FragsRetrans.Load(),
		counters[0].FastRetrans.Load(), counters[0].RTTSamples.Load())
}

// byteWindow reports a channel's byte accounting toward peer: the bytes
// in flight, their high-water mark, and the sum of the frames actually
// in the in-flight table (which the first must always equal).
func (e *UDPEndpoint) byteWindow(peer int) (inFly, hw, table int) {
	ss := e.sendsts[peer]
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for _, fl := range ss.inFly {
		table += len(fl.frame)
	}
	return ss.inFlyBytes, ss.inFlyHW, table
}

// streamLarge sends msgs 256 KiB messages from every sender to rank 0
// at once and waits for all of them to arrive.
func streamLarge(t *testing.T, dst *UDPEndpoint, senders []*UDPEndpoint, msgs int) {
	t.Helper()
	payload := make([]byte, 256<<10)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	for _, s := range senders {
		go func() {
			for i := 0; i < msgs; i++ {
				if err := s.Send(wire.Message{Type: wire.TObjFetchReply, To: 0, Payload: payload}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < msgs*len(senders); i++ {
		m, ok := recvTimeout(t, dst, 60*time.Second)
		if !ok || !bytes.Equal(m.Payload, payload) {
			t.Fatalf("message %d corrupted or lost", i)
		}
	}
}

// TestUDPByteWindowStopsSelfInflictedLoss streams five-fragment
// messages between default endpoints — one sender, then two senders
// bursting at one receiver. The byte window keeps each sender inside
// its share of the receiver's socket buffer, so the kernel drops
// (almost) nothing; with only the 32-fragment window a sender puts
// 2 MiB in front of a 208 KiB buffer and over half of all fragments are
// retransmissions. Window and socket buffers are the defaults; only the
// RTO floor is raised, so that a receiver slowed by the race detector
// is not mistaken for loss by the 2 ms timer — a datagram the kernel
// drops still costs a retransmission.
func TestUDPByteWindowStopsSelfInflictedLoss(t *testing.T) {
	for _, n := range []int{2, 3} {
		addrs, err := FreeLocalAddrs(n)
		if err != nil {
			t.Fatal(err)
		}
		eps := make([]*UDPEndpoint, n)
		counters := make([]*stats.Counters, n)
		for i := range eps {
			counters[i] = &stats.Counters{}
			eps[i], err = NewUDPEndpointOptions(i, addrs, UDPOptions{Counters: counters[i], MinRTO: 100 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer eps[i].Close()
		}
		granted, err := readBuffer(eps[0].conn)
		if err != nil {
			t.Fatal(err)
		}
		share := eps[0].share.Load()
		if want := uint32(granted / 2 / (n - 1)); share != want || share < wire.MaxDatagram {
			t.Fatalf("n=%d: share %d, want %d (SO_RCVBUF %d split %d ways) and at least one datagram", n, share, want, granted, n-1)
		}
		streamLarge(t, eps[0], eps[1:], 64)
		for i := 1; i < n; i++ {
			sent, retrans := counters[i].FragsSent.Load(), counters[i].FragsRetrans.Load()
			if float64(retrans)/float64(sent) >= 0.02 {
				t.Errorf("n=%d sender %d: %d of %d fragments retransmitted (>= 2%%)", n, i, retrans, sent)
			}
			if err := eps[i].Drain(5 * time.Second); err != nil {
				t.Error(err)
			}
			inFly, hw, table := eps[i].byteWindow(0)
			if hw > int(share) || inFly != 0 || table != 0 {
				t.Errorf("n=%d sender %d: %d bytes in flight at peak (share %d), %d now (table %d)", n, i, hw, share, inFly, table)
			}
		}
	}
}

// TestUDPByteWindowSmallGrantDoesNotWedge models a host whose rmem_max
// grants less than one datagram per sender: every frame is larger than
// the share, so the channel must fall back to one datagram at a time —
// never zero — and still deliver a multi-fragment message.
func TestUDPByteWindowSmallGrantDoesNotWedge(t *testing.T) {
	e0, e1, _ := newUDPPair(t, UDPOptions{})
	e1.setRecvBuffer(64 << 10)
	if got := e1.share.Load(); got != 32<<10 {
		t.Fatalf("share of a 64 KiB grant = %d, want 32 KiB", got)
	}
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 5)
	}
	go func() {
		if err := e0.Send(wire.Message{Type: wire.TObjFetchReply, To: 1, Payload: payload}); err != nil {
			t.Error(err)
		}
	}()
	m, ok := recvTimeout(t, e1, 60*time.Second)
	if !ok || !bytes.Equal(m.Payload, payload) {
		t.Fatal("transfer wedged or corrupted under a sub-datagram share")
	}
	if err := e0.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	inFly, hw, table := e0.byteWindow(1)
	if hw > wire.MaxDatagram || inFly != 0 || table != 0 {
		t.Fatalf("peak %d bytes in flight (want one datagram, <= %d); %d left, table %d", hw, wire.MaxDatagram, inFly, table)
	}
}

// TestUDPByteWindowAdvertisedShare feeds a channel acks whose byte
// window is absent (an older peer), zero, and absurd: the first two
// leave the one-datagram floor in force, the last is held by the
// fragment window.
func TestUDPByteWindowAdvertisedShare(t *testing.T) {
	addrs, err := FreeLocalAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	e0, err := NewUDPEndpointOptions(0, addrs, UDPOptions{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e0.Close()
	ss := e0.sendsts[1]
	feed := func(ack []byte) {
		t.Helper()
		f, ok := parseFlowFrame(ack)
		if !ok {
			t.Fatal("ack rejected")
		}
		e0.handleAck(int(f.src), f.ack, f.sack, f.share)
	}
	const frame = 60 << 10
	for _, tc := range []struct {
		name string
		ack  []byte
	}{
		{"absent", makeAckFrame(1, 0, 0, 1<<20)[:flowHeaderLen+sackLen]},
		{"zero", makeAckFrame(1, 0, 0, 0)},
	} {
		feed(makeAckFrame(1, 0, 0, 1<<20)) // a share to fall back from
		feed(tc.ack)
		ss.mu.Lock()
		idle := ss.admits(e0.window, frame)
		ss.inFlyBytes = 1
		busy := ss.admits(e0.window, frame)
		ss.inFlyBytes = 0
		ss.mu.Unlock()
		if !idle || busy {
			t.Errorf("%s byte window: idle channel admits=%v (want true), busy channel admits=%v (want false)", tc.name, idle, busy)
		}
	}
	feed(makeAckFrame(1, 0, 0, ^uint32(0)))
	ss.mu.Lock()
	ss.inFlyBytes = 3 * frame
	ss.nextSeq = 3
	room := ss.admits(e0.window, frame)
	ss.inFlyBytes = 4 * frame
	ss.nextSeq = 4
	full := ss.admits(e0.window, frame)
	ss.inFlyBytes, ss.nextSeq = 0, 0
	ss.mu.Unlock()
	if !room || full {
		t.Errorf("2^32-1 byte window over a 4-fragment window: admits at 3 in flight=%v (want true), at 4=%v (want false)", room, full)
	}
}
