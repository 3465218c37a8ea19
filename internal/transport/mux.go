package transport

import (
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// Mux is the request/reply layer between an Endpoint and a DSM node's
// protocol handlers — the SIGIO substrate of §3.6, which LOTS and the
// JIAJIA baseline both stand on. It owns request IDs, the table of
// calls awaiting a reply, and the dispatch loop that routes replies to
// their callers and runs every request in its own goroutine. A handler
// never waits: one that cannot serve its request yet parks it with its
// node, which serves it again through Go. What differs between the two
// runtimes (clock merges, trace contexts, panic wording, the handler
// switch) stays in their Node types.
type Mux struct {
	ep     Endpoint
	handle func(wire.Message) // serves one request
	closed atomic.Bool
	seq    atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan wire.Message
	// dead is set when Serve drains pending on endpoint closure: a call
	// registered after that point would wait on a channel nothing will
	// ever signal, so Expect fails instead.
	dead bool
}

// replyBit marks a message as a reply; without it a node's request to
// itself (node 0's own barrier arrival) would be routed to its own
// pending table.
const replyBit = uint64(1) << 63

// NewMux builds the request/reply layer over ep; handle serves one
// request. The caller starts Serve.
func NewMux(ep Endpoint, handle func(wire.Message)) *Mux {
	return &Mux{ep: ep, handle: handle, pending: make(map[uint64]chan wire.Message)}
}

// ReplyID is the ReqID that routes an answer to request reqID back to
// the call that issued it.
func ReplyID(reqID uint64) uint64 { return reqID | replyBit }

// Expect allocates a cluster-unique request ID (rank in the high bits)
// and registers the channel its reply arrives on. The channel yields a
// zero message (Type TInvalid) if the endpoint closes first. Expect
// returns ErrClosed once Serve has drained the table: send errors are
// swallowed while a node closes, so a later registration would block
// its caller forever.
func (x *Mux) Expect() (uint64, <-chan wire.Message, error) {
	ch := make(chan wire.Message, 1)
	id, err := x.register(ch)
	if err != nil {
		return 0, nil, err
	}
	return id, ch, nil
}

// register is Expect on a channel the caller supplies.
func (x *Mux) register(ch chan wire.Message) (uint64, error) {
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
	id, err := x.register(ch)
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
// wakes every pending call with a zero message and fails later ones.
// Replies nobody waits for (the call was abandoned) are dropped, their
// payloads released.
func (x *Mux) Serve() {
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
			go x.run(m)
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

// Close marks the node closing and closes the endpoint under it.
func (x *Mux) Close() error {
	x.closed.Store(true)
	return x.ep.Close()
}

// Closed reports whether Close was called: from then on send errors
// and handler panics are expected and swallowed.
func (x *Mux) Closed() bool { return x.closed.Load() }
