package transport

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/wire"
)

func newTestMemCluster(n int) (*MemCluster, []*stats.Counters, []*stats.SimClock) {
	counters := make([]*stats.Counters, n)
	clocks := make([]*stats.SimClock, n)
	for i := range counters {
		counters[i] = &stats.Counters{}
		clocks[i] = &stats.SimClock{}
	}
	return NewMemCluster(n, platform.Test(), counters, clocks), counters, clocks
}

func TestMemSendRecv(t *testing.T) {
	c, counters, _ := newTestMemCluster(2)
	defer c.Close()
	go func() {
		err := c.Endpoint(0).Send(wire.Message{Type: wire.TLockReq, To: 1, Payload: []byte("gimme")})
		if err != nil {
			t.Error(err)
		}
	}()
	m, ok := c.Endpoint(1).Recv()
	if !ok {
		t.Fatal("Recv returned !ok")
	}
	if m.Type != wire.TLockReq || m.From != 0 || string(m.Payload) != "gimme" {
		t.Errorf("got %+v", m)
	}
	if counters[0].MsgsSent.Load() != 1 || counters[1].MsgsRecv.Load() != 1 {
		t.Error("counters not updated")
	}
}

func TestMemLargeMessageFragmentCount(t *testing.T) {
	c, counters, _ := newTestMemCluster(2)
	defer c.Close()
	payload := bytes.Repeat([]byte{0xAB}, 200<<10) // 200 KB -> >= 4 frags
	go c.Endpoint(0).Send(wire.Message{Type: wire.TObjFetchReply, To: 1, Payload: payload})
	m, ok := c.Endpoint(1).Recv()
	if !ok || !bytes.Equal(m.Payload, payload) {
		t.Fatal("large payload corrupted")
	}
	if f := counters[0].FragsSent.Load(); f < 4 {
		t.Errorf("FragsSent = %d, want >= 4 for 200KB", f)
	}
}

func TestMemBadDestination(t *testing.T) {
	c, _, _ := newTestMemCluster(2)
	defer c.Close()
	if err := c.Endpoint(0).Send(wire.Message{Type: wire.TLockFree, To: 9}); err != ErrBadDest {
		t.Errorf("err = %v, want ErrBadDest", err)
	}
}

func TestMemClosedCluster(t *testing.T) {
	c, _, _ := newTestMemCluster(2)
	c.Close()
	if err := c.Endpoint(0).Send(wire.Message{Type: wire.TLockFree, To: 1}); err != ErrClosed {
		t.Errorf("Send after close = %v, want ErrClosed", err)
	}
	if _, ok := c.Endpoint(1).Recv(); ok {
		t.Error("Recv after close should return !ok")
	}
}

func TestMemManyToOneOrderingPerSender(t *testing.T) {
	const n = 4
	const per = 50
	c, _, _ := newTestMemCluster(n)
	defer c.Close()
	var wg sync.WaitGroup
	for s := 1; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				var w wire.Buffer
				w.U32(uint32(i))
				err := c.Endpoint(s).Send(wire.Message{Type: wire.TJDiff, To: 0, Payload: w.Bytes()})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	last := map[uint16]int{}
	for got := 0; got < (n-1)*per; got++ {
		m, ok := c.Endpoint(0).Recv()
		if !ok {
			t.Fatal("Recv closed early")
		}
		seq := int(wire.NewReader(m.Payload).U32())
		if prev, seen := last[m.From]; seen && seq != prev+1 {
			t.Fatalf("sender %d: got seq %d after %d (per-sender FIFO violated)", m.From, seq, prev)
		}
		last[m.From] = seq
	}
	wg.Wait()
}

func TestMemSimTimeStamped(t *testing.T) {
	c, _, clocks := newTestMemCluster(2)
	defer c.Close()
	clocks[0].Advance(5 * time.Millisecond)
	go c.Endpoint(0).Send(wire.Message{Type: wire.TLockFree, To: 1})
	m, _ := c.Endpoint(1).Recv()
	if m.SimTime != int64(5*time.Millisecond) {
		t.Errorf("SimTime = %d, want 5ms", m.SimTime)
	}
}

func TestArrivalCost(t *testing.T) {
	p := platform.PIV2GFedora()
	m := wire.Message{SimTime: int64(time.Second), Payload: make([]byte, 1<<20)}
	arr := Arrival(p, m)
	if arr <= time.Second {
		t.Error("arrival must be after send time")
	}
	// ~80ms serialization at 12.5 MB/s for 1 MB.
	ser := arr - time.Second
	if ser < 70*time.Millisecond || ser > 150*time.Millisecond {
		t.Errorf("1MB transfer cost = %v, want ~80-100ms", ser)
	}
	// Empty message still pays fixed cost + latency.
	m0 := wire.Message{SimTime: 0}
	if Arrival(p, m0) <= 0 {
		t.Error("empty message should still cost latency")
	}
}

func TestArrivalChargesPerFragmentOverhead(t *testing.T) {
	p := platform.PIV2GFedora()
	small := wire.Message{Payload: make([]byte, 1000)}
	bigOne := wire.Message{Payload: make([]byte, wire.MaxFragPayload)}
	bigTwo := wire.Message{Payload: make([]byte, wire.MaxFragPayload+1)}
	d1 := Arrival(p, bigOne) - Arrival(p, small)
	d2 := Arrival(p, bigTwo) - Arrival(p, bigOne)
	// Crossing the fragment boundary adds a fixed per-fragment cost
	// beyond plain serialization growth.
	if d2 <= 0 || d2 < p.MsgFixedCost {
		t.Errorf("fragment boundary cost = %v (first-frag growth %v)", d2, d1)
	}
}

func TestUDPBasicExchange(t *testing.T) {
	addrs, err := FreeLocalAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	var counters [2]stats.Counters
	e0, err := NewUDPEndpoint(0, addrs, &counters[0])
	if err != nil {
		t.Fatal(err)
	}
	defer e0.Close()
	e1, err := NewUDPEndpoint(1, addrs, &counters[1])
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()

	go func() {
		if err := e0.Send(wire.Message{Type: wire.TLockReq, To: 1, ReqID: 5, Payload: []byte("ping")}); err != nil {
			t.Error(err)
		}
	}()
	m, ok := recvTimeout(t, e1, 5*time.Second)
	if !ok {
		t.Fatal("no message")
	}
	if m.Type != wire.TLockReq || m.ReqID != 5 || string(m.Payload) != "ping" {
		t.Errorf("got %+v", m)
	}
	// Reply path.
	go e1.Send(wire.Message{Type: wire.TLockGrant, To: 0, ReqID: 5})
	r, ok := recvTimeout(t, e0, 5*time.Second)
	if !ok || r.Type != wire.TLockGrant {
		t.Fatalf("reply: ok=%v %+v", ok, r)
	}
}

func TestUDPLargeMessageWindowedTransfer(t *testing.T) {
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

	// 3 MB spans ~48 fragments — more than the 32-fragment window, so
	// this exercises ack-driven window advance.
	payload := make([]byte, 3<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	go func() {
		if err := e0.Send(wire.Message{Type: wire.TObjFetchReply, To: 1, Payload: payload}); err != nil {
			t.Error(err)
		}
	}()
	m, ok := recvTimeout(t, e1, 20*time.Second)
	if !ok {
		t.Fatal("large message never arrived")
	}
	if !bytes.Equal(m.Payload, payload) {
		t.Error("payload corrupted over UDP transport")
	}
}

func TestUDPLoopbackSelfSend(t *testing.T) {
	addrs, err := FreeLocalAddrs(1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewUDPEndpoint(0, addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	go e.Send(wire.Message{Type: wire.TLockFree, To: 0, Payload: []byte("self")})
	m, ok := recvTimeout(t, e, 2*time.Second)
	if !ok || string(m.Payload) != "self" {
		t.Fatalf("self-send failed: ok=%v %+v", ok, m)
	}
}

func TestUDPRankValidation(t *testing.T) {
	if _, err := NewUDPEndpoint(5, []string{"127.0.0.1:0"}, nil); err == nil {
		t.Error("out-of-range rank should fail")
	}
	addrs, _ := FreeLocalAddrs(1)
	e, err := NewUDPEndpoint(0, addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Send(wire.Message{To: 3}); err != ErrBadDest {
		t.Errorf("err = %v, want ErrBadDest", err)
	}
}

func recvTimeout(t *testing.T, e Endpoint, d time.Duration) (wire.Message, bool) {
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

func TestMailboxUnbounded(t *testing.T) {
	c, _, _ := newTestMemCluster(2)
	defer c.Close()
	// Send 10k messages with no receiver: must never block.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10000; i++ {
			if err := c.Endpoint(0).Send(wire.Message{Type: wire.TLockFree, To: 1}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("sender blocked; mailbox is not unbounded")
	}
	for i := 0; i < 10000; i++ {
		if _, ok := c.Endpoint(1).Recv(); !ok {
			t.Fatalf("message %d lost", i)
		}
	}
}

// TestMailboxDropsDeliveredPayload: once Recv has handed a message
// over, the inbox no longer references it, so a payload the receiver
// drops is garbage. The inbox used to reslice past a delivered message
// and keep it in the backing array until the array was reallocated.
func TestMailboxDropsDeliveredPayload(t *testing.T) {
	c, _, _ := newTestMemCluster(2)
	defer c.Close()
	if err := c.Endpoint(0).Send(wire.Message{Type: wire.TObjFetchReply, To: 1, Payload: make([]byte, 1<<20)}); err != nil {
		t.Fatal(err)
	}
	finalized := make(chan struct{})
	func() {
		m, ok := c.Endpoint(1).Recv()
		if !ok || len(m.Payload) != 1<<20 {
			t.Fatalf("received ok=%v with %d payload bytes", ok, len(m.Payload))
		}
		runtime.SetFinalizer(&m.Payload[0], func(*byte) { close(finalized) })
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-finalized:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a received and dropped 1 MiB payload was never collected: something still references it")
}

// TestMailboxReusesBacking: an inbox that drains after every message,
// and one that keeps a standing backlog, both deliver in order without
// allocating per message — the backing array is reset or slid down,
// never regrown. The inbox used to reslice from the front, so every
// put eventually reallocated.
func TestMailboxReusesBacking(t *testing.T) {
	for _, backlog := range []int{0, 8} {
		mb := newMailbox()
		next, want := uint64(0), uint64(0)
		for i := 0; i < backlog; i++ {
			mb.put(wire.Message{ReqID: next})
			next++
		}
		pair := func() {
			mb.put(wire.Message{ReqID: next})
			next++
			if m, ok := mb.get(); !ok || m.ReqID != want {
				t.Fatalf("backlog %d: got %d (ok=%v), want %d", backlog, m.ReqID, ok, want)
			}
			want++
		}
		for i := 0; i < 64; i++ { // let the array reach its working size
			pair()
		}
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < 1000; i++ {
				pair()
			}
		})
		if allocs != 0 {
			t.Errorf("backlog %d: %v allocations over 1000 messages, want 0", backlog, allocs)
		}
	}
}

func TestEndpointsList(t *testing.T) {
	c, _, _ := newTestMemCluster(3)
	defer c.Close()
	eps := c.Endpoints()
	if len(eps) != 3 {
		t.Fatalf("len = %d", len(eps))
	}
	for i, e := range eps {
		if e.ID() != i || e.N() != 3 {
			t.Errorf("endpoint %d: ID=%d N=%d", i, e.ID(), e.N())
		}
	}
}

func ExampleMemCluster() {
	c := NewMemCluster(2, platform.Test(), nil, nil)
	defer c.Close()
	go c.Endpoint(0).Send(wire.Message{Type: wire.TLockReq, To: 1, Payload: []byte("hello")})
	m, _ := c.Endpoint(1).Recv()
	fmt.Printf("%s from node %d: %s\n", m.Type, m.From, m.Payload)
	// Output: lock-req from node 0: hello
}
