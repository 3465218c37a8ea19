package transport

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/wire"
)

// echoMuxes starts a mux on each end of a two-node mem cluster, node 1
// answering every request with its own payload, and returns node 0's
// mux and a function that closes the cluster and waits for both serve
// loops to end.
func echoMuxes() (*Mux, func()) {
	c := NewMemCluster(2, platform.Test(), nil, nil)
	x0 := NewMux(c.Endpoint(0), func(wire.Message) {})
	var x1 *Mux
	x1 = NewMux(c.Endpoint(1), func(m wire.Message) {
		x1.ep.Send(wire.Message{Type: wire.TJDiff, To: m.From, ReqID: ReplyID(m.ReqID), Payload: m.Payload}) //nolint:errcheck // the test's Call reports a lost reply
	})
	var wg sync.WaitGroup
	for _, x := range []*Mux{x0, x1} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x.Serve()
		}()
	}
	return x0, func() {
		c.Close()
		wg.Wait()
	}
}

// TestMuxCallAllocations: a Call round trip over mem endpoints allocates
// only what the layers under the mux do — the delivered payload of the
// request and of the reply — and nothing for the reply channel, which
// Call recycles, or for serving the request, which an idle worker takes.
func TestMuxCallAllocations(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's instrumentation allocates, and its sync.Pool drops")
	}
	const maxAllocs = 2
	x, stop := echoMuxes()
	defer stop()
	payload := []byte{1, 2, 3, 4}
	call := func() {
		reply, err := x.Call(wire.Message{Type: wire.TJDiff, To: 1, Payload: payload})
		if err != nil || len(reply.Payload) != len(payload) {
			t.Fatalf("reply %v, err %v", reply, err)
		}
	}
	call() // fill the slab and channel pools
	// Wait until every worker of both muxes waits in its receive.
	// AllocsPerRun runs on one P, where the round trip's goroutines hand
	// the processor to each other and a worker still waiting to run its
	// first time slice can be passed over.
	want := 2 * workersPerProc * runtime.GOMAXPROCS(0)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		idle, busy := serveWorkers()
		if idle >= want && busy == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d serve workers idle and %d not, want %d idle", idle, busy, want)
		}
	}
	got := testing.AllocsPerRun(200, call)
	t.Logf("%v allocations per Call", got)
	if got > maxAllocs {
		t.Errorf("a Call round trip allocates %v times, want at most %d", got, maxAllocs)
	}
}

// serveWorkers counts the serve workers in the process that wait in
// their receive, and the ones that do not: not started yet, or serving.
func serveWorkers() (idle, busy int) {
	buf := make([]byte, 1<<20)
	for runtime.Stack(buf, true) == len(buf) { // truncated: grow it
		buf = make([]byte, 2*len(buf))
	}
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		switch {
		case !strings.Contains(g, "(*Mux).worker("):
		case strings.Contains(g, " [chan receive") && !strings.Contains(g, "(*Mux).run("):
			idle++
		default:
			busy++
		}
	}
	return idle, busy
}

// stalledEndpoint's Send waits for release to close and then fails, so
// a test can close the endpoint under calls that are still sending.
type stalledEndpoint struct {
	Endpoint
	entered chan struct{} // one token per Send that has begun
	release chan struct{}
}

func (e *stalledEndpoint) Send(wire.Message) error {
	e.entered <- struct{}{}
	<-e.release
	return ErrClosed
}

// TestMuxPooledChannelNoStaleReply: Calls whose Send fails after the
// mux's drain has put a zero message in their reply channels must put
// no such channel back in the pool, where a later Call would take it:
// every Call on a fresh mux then receives its own reply.
func TestMuxPooledChannelNoStaleReply(t *testing.T) {
	const failing = 64
	c := NewMemCluster(1, platform.Test(), nil, nil)
	ep := &stalledEndpoint{Endpoint: c.Endpoint(0), entered: make(chan struct{}, failing), release: make(chan struct{})}
	x := NewMux(ep, func(wire.Message) {})
	served := make(chan struct{})
	go func() {
		x.Serve()
		close(served)
	}()
	var wg sync.WaitGroup
	for i := 0; i < failing; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := x.Call(wire.Message{Type: wire.TJDiff, To: 0}); err == nil {
				t.Error("a Call whose Send failed returned a reply")
			}
		}()
	}
	for i := 0; i < failing; i++ {
		<-ep.entered // registered, and sending
	}
	c.Close()
	<-served // the drain has woken every call
	close(ep.release)
	wg.Wait()

	x, stop := echoMuxes()
	defer stop()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				want := uint32(g<<16 | i)
				var w wire.Buffer
				w.U32(want)
				reply, err := x.Call(wire.Message{Type: wire.TJDiff, To: 1, Payload: w.Bytes()})
				if errors.Is(err, ErrClosed) {
					t.Errorf("call %d of goroutine %d: received a stale zero message", i, g)
					return
				}
				if got := wire.NewReader(reply.Payload).U32(); err != nil || got != want {
					t.Errorf("call %d of goroutine %d: reply %d, err %v; want %d", i, g, got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMuxCrossCallsNeverWaitForAWorker: a handler may wait for a reply
// (a grant's fetch continuation, a spill to a peer), and only Serve
// delivers replies. Each of two muxes gets more concurrent requests
// than it has workers; each handler waits until all of them have
// arrived, then Calls the other mux, whose handler answers at once.
// Were a request queued for a worker, or Serve blocked until one was
// free, the requests past the workers would never arrive and no handler
// would finish.
func TestMuxCrossCallsNeverWaitForAWorker(t *testing.T) {
	const ask, answer = wire.TJPageReq, wire.TJDiff
	k := 2*workersPerProc*runtime.GOMAXPROCS(0) + 1
	c := NewMemCluster(2, platform.Test(), nil, nil)
	var xs [2]*Mux
	var arrived [2]sync.WaitGroup
	for i := range xs {
		arrived[i].Add(k)
		xs[i] = NewMux(c.Endpoint(i), func(m wire.Message) {
			if m.Type == ask {
				arrived[i].Done()
				arrived[i].Wait()
				reply, err := xs[i].Call(wire.Message{Type: answer, To: uint16(1 - i)})
				if err != nil {
					t.Errorf("mux %d: a handler's call: %v", i, err)
				}
				reply.Release()
			}
			m.Release()
			xs[i].ep.Send(wire.Message{Type: answer, To: m.From, ReqID: ReplyID(m.ReqID)}) //nolint:errcheck // the caller reports a lost reply
		})
	}
	var serving sync.WaitGroup
	for _, x := range xs {
		serving.Add(1)
		go func() {
			defer serving.Done()
			x.Serve()
		}()
	}
	defer func() {
		c.Close()
		serving.Wait()
	}()
	var calls sync.WaitGroup
	for i, x := range xs {
		for range k {
			calls.Add(1)
			go func() {
				defer calls.Done()
				if _, err := x.Call(wire.Message{Type: ask, To: uint16(1 - i)}); err != nil {
					t.Errorf("mux %d: call: %v", i, err)
				}
			}()
		}
	}
	done := make(chan struct{})
	go func() {
		calls.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("%d requests to each mux, %d workers each: the calls never completed", k, workersPerProc*runtime.GOMAXPROCS(0))
	}
}
