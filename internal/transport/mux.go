package transport

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// Mux is the request/reply layer between an Endpoint and a DSM node's
// protocol handlers — the SIGIO substrate of §3.6, which LOTS and the
// JIAJIA baseline both stand on. It owns request IDs, the table of
// calls awaiting a reply, and the dispatch loop that routes replies to
// their callers and hands every request to a serve worker. A handler
// never waits: one that cannot serve its request yet parks it with its
// node, which serves it again through Go. What differs between the two
// runtimes (clock merges, trace contexts, panic wording, the handler
// switch) stays in their Node types.
//
// Serve runs a fixed set of workers, four per GOMAXPROCS, that keep
// their grown stacks from request to request, and hands each request to
// an idle one; when none is idle the request gets a goroutine of its
// own. The handoff never queues and Serve never blocks on it, because
// Serve alone delivers replies and two paths under a handler still wait
// for one: a grant's fetch continuation, and a map-in's eviction that
// spills to a peer. If Serve stopped reading while every worker was
// busy, or requests waited in a queue, two ranks could each hold the
// request that the other's busy workers wait on.
type Mux struct {
	ep     Endpoint
	handle func(wire.Message) // serves one request
	work   chan wire.Message  // unbuffered: a send succeeds only into an idle worker
	closed atomic.Bool
	seq    atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan wire.Message
	// dead is set when Serve drains pending on endpoint closure: a call
	// registered after that point would wait on a channel nothing will
	// ever signal, so Expect fails instead.
	dead bool
}

// workersPerProc sizes Serve's workers: four per GOMAXPROCS. On a
// 2-CPU host (go1.24), `lockstep` allocated 1,243 times per epoch with
// a goroutine for every request, 159–161 with one worker per GOMAXPROCS
// and 3.0 with four: a worker that has sent its reply is not yet idle
// when the next request lands, and several ranks share the processors.
// That sizing is measured only on the in-process workloads, where every
// rank's Mux shares one process's GOMAXPROCS. With one rank per process
// (lotslaunch) it is unmeasured; there an idle worker costs its stack.
const workersPerProc = 4

// replyBit marks a message as a reply; without it a node's request to
// itself (node 0's own barrier arrival) would be routed to its own
// pending table.
const replyBit = uint64(1) << 63

// NewMux builds the request/reply layer over ep; handle serves one
// request. The caller starts Serve.
func NewMux(ep Endpoint, handle func(wire.Message)) *Mux {
	return &Mux{ep: ep, handle: handle, work: make(chan wire.Message), pending: make(map[uint64]chan wire.Message)}
}

// ReplyID is the ReqID that routes an answer to request reqID back to
// the call that issued it.
func ReplyID(reqID uint64) uint64 { return reqID | replyBit }

// Expect registers ch for the reply to a request the caller sends
// itself and returns the request's cluster-unique ID (rank in the high
// bits). Serve sends on ch exactly once, the reply or a zero message
// (Type TInvalid) if the endpoint closes first, so ch needs a buffer of
// one, and it is empty again once it has yielded a reply. Expect returns
// ErrClosed once Serve has drained the table: send errors are swallowed
// while a node closes, so a later registration would block its caller
// forever.
func (x *Mux) Expect(ch chan wire.Message) (uint64, error) {
	id := uint64(x.ep.ID())<<48 | x.seq.Add(1)
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.dead {
		return 0, ErrClosed
	}
	x.pending[id] = ch
	return id, nil
}

// replyChans recycles Call's reply channels. Serve sends exactly once on
// a registered channel, a reply or the drain's zero message, so a channel
// is empty again once Call has received a reply from it; on every other
// path a zero message may yet arrive, and the channel is left to the
// collector.
var replyChans = sync.Pool{New: func() any { return make(chan wire.Message, 1) }}

// Call sends m as a request and blocks for the correlated reply.
func (x *Mux) Call(m wire.Message) (wire.Message, error) {
	ch := replyChans.Get().(chan wire.Message)
	id, err := x.Expect(ch)
	if err != nil {
		return wire.Message{}, err
	}
	m.ReqID = id
	if err := x.ep.Send(m); err != nil {
		x.mu.Lock()
		delete(x.pending, id)
		x.mu.Unlock()
		return wire.Message{}, err
	}
	reply := <-ch
	if reply.Type == wire.TInvalid {
		return reply, ErrClosed
	}
	replyChans.Put(ch)
	return reply, nil
}

// Serve is the dispatch loop: it runs until the endpoint closes, then
// wakes every pending call with a zero message, fails later ones and
// lets its workers exit. Replies nobody waits for (the call was
// abandoned) are dropped, their payloads released.
func (x *Mux) Serve() {
	for range workersPerProc * runtime.GOMAXPROCS(0) {
		go x.worker()
	}
	defer close(x.work)
	for {
		m, ok := x.ep.Recv()
		if !ok {
			x.mu.Lock()
			x.dead = true
			for id, ch := range x.pending {
				ch <- wire.Message{}
				delete(x.pending, id)
			}
			x.mu.Unlock()
			return
		}
		if m.ReqID&replyBit == 0 {
			select {
			case x.work <- m:
			default:
				go x.run(m)
			}
			continue
		}
		id := m.ReqID &^ replyBit
		x.mu.Lock()
		ch, mine := x.pending[id]
		delete(x.pending, id)
		x.mu.Unlock()
		if mine {
			ch <- m
		} else {
			m.Release()
		}
	}
}

// worker serves the requests Serve hands it until Serve returns.
func (x *Mux) worker() {
	for m := range x.work {
		x.run(m)
	}
}

// run serves one request.
func (x *Mux) run(m wire.Message) {
	defer x.recoverClosed()
	x.handle(m)
}

// Go runs fs in order on a fresh goroutine under run's panic policy.
func (x *Mux) Go(fs ...func()) {
	go func() {
		defer x.recoverClosed()
		for _, f := range fs {
			f()
		}
	}()
}

// recoverClosed swallows a handler's panic against a closed endpoint: it
// was only failing to answer a peer that is gone too.
func (x *Mux) recoverClosed() {
	if r := recover(); r != nil && !x.closed.Load() {
		panic(r)
	}
}

// MarkClosed marks the node closing without closing its endpoint. A
// cluster whose ranks share one process marks every rank before it
// closes any endpoint: a rank still answering a peer whose endpoint has
// closed is then part of the shutdown, and its failed send is swallowed
// instead of failing the process.
func (x *Mux) MarkClosed() { x.closed.Store(true) }

// Close marks the node closing and closes the endpoint under it.
func (x *Mux) Close() error {
	x.MarkClosed()
	return x.ep.Close()
}

// Closed reports whether Close was called: from then on send errors
// and handler panics are expected and swallowed.
func (x *Mux) Closed() bool { return x.closed.Load() }
