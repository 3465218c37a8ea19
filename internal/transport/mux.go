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
// their callers and runs every request in its own goroutine (so a
// handler that must wait — a fetch gated on in-flight barrier diffs —
// cannot stall the loop). What differs between the two runtimes (clock
// merges, trace contexts, panic wording, the handler switch) stays in
// their Node types.
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
	id := uint64(x.ep.ID())<<48 | x.seq.Add(1)
	ch := make(chan wire.Message, 1)
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.dead {
		return 0, nil, ErrClosed
	}
	x.pending[id] = ch
	return id, ch, nil
}

// Call sends m as a request and blocks for the correlated reply.
func (x *Mux) Call(m wire.Message) (wire.Message, error) {
	id, ch, err := x.Expect()
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
	return reply, nil
}

// Serve is the dispatch loop: it runs until the endpoint closes, then
// wakes every pending call with a zero message and fails later ones.
// Replies nobody waits for (the call was abandoned) are dropped.
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
		}
	}
}

// run serves one request. A handler that panics against a closed
// endpoint was only failing to answer a peer that is gone too.
func (x *Mux) run(m wire.Message) {
	defer func() {
		if r := recover(); r != nil && !x.closed.Load() {
			panic(r)
		}
	}()
	x.handle(m)
}

// Close marks the node closing and closes the endpoint under it.
func (x *Mux) Close() error {
	x.closed.Store(true)
	return x.ep.Close()
}

// Closed reports whether Close was called: from then on send errors
// and handler panics are expected and swallowed.
func (x *Mux) Closed() bool { return x.closed.Load() }
