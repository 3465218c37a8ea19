package transport

// Frame coalescing: a BatchingEndpoint wraps any Endpoint and merges
// bursts of small per-peer protocol messages into single TBatch
// envelopes — one datagram (UDP), one write (TCP), one mailbox pass
// (mem) — instead of one per message. The envelope rides the ordinary
// encode/fragment/flow-control path, so reliability, chaos injection,
// and reconnect-resume all see batches as plain messages and need no
// special casing; a dropped or reordered batched datagram is healed by
// the same machinery that heals any other frame.
//
// Batching is explicit: only Defer queues (the protocol's fan-out
// sites know where a burst is), and a queued peer flushes when the
// batch nears the single-fragment budget, when a direct Send to that
// peer must overtake it (per-peer FIFO is preserved), or when the
// protocol ends the round with Flush. A blanket delay-everything
// strategy would deadlock the RPC-heavy protocol paths, so there is
// deliberately no timer.

import (
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/wire"
)

// maxBatchBytes caps a batch payload so the envelope (payload plus
// message header) still fits one wire fragment — coalescing must never
// turn one datagram into several.
const maxBatchBytes = wire.MaxFragPayload - 512

// BatchingEndpoint wraps an Endpoint with per-peer frame coalescing.
// It implements Endpoint; Defer and Flush are the batching face.
type BatchingEndpoint struct {
	inner    Endpoint
	counters *stats.Counters
	// now, when non-nil, stamps a deferred message's SimTime at Defer
	// time (the moment Send would have been called). Inner messages are
	// encoded before the envelope reaches the transport, so the
	// transport's own stamping never sees them.
	now func() int64

	peers []*peerBuf

	rmu sync.Mutex
	rq  []wire.Message // sub-messages unwrapped ahead of Recv
}

// peerBuf accumulates one destination's deferred messages. Its mutex
// is held across the inner Send on flush so the deferred batch and any
// overtaking direct Send keep their relative order on the link.
type peerBuf struct {
	mu   sync.Mutex
	msgs []wire.Message
	size int // accumulated batch payload bytes
}

// NewBatching wraps inner with frame coalescing. counters may be nil;
// now may be nil (deferred messages then keep SimTime 0 unless the
// caller stamped them).
func NewBatching(inner Endpoint, counters *stats.Counters, now func() int64) *BatchingEndpoint {
	e := &BatchingEndpoint{inner: inner, counters: counters, now: now}
	e.peers = make([]*peerBuf, inner.N())
	for i := range e.peers {
		e.peers[i] = &peerBuf{}
	}
	return e
}

// ID returns the inner endpoint's rank.
func (e *BatchingEndpoint) ID() int { return e.inner.ID() }

// N returns the cluster size.
func (e *BatchingEndpoint) N() int { return e.inner.N() }

// Send transmits m immediately. Any batch pending for m.To is flushed
// first, so a direct send never overtakes messages deferred before it.
func (e *BatchingEndpoint) Send(m wire.Message) error {
	if int(m.To) >= len(e.peers) {
		return ErrBadDest
	}
	pb := e.peers[m.To]
	pb.mu.Lock()
	defer pb.mu.Unlock()
	if err := e.flushPeerLocked(pb, int(m.To)); err != nil {
		return err
	}
	return e.inner.Send(m)
}

// Defer queues m for coalesced delivery to m.To. The message leaves
// the process at the next Flush, at the next direct Send to the same
// peer, or when the pending batch nears the single-fragment budget.
// Defer stamps From (and SimTime, when a clock hook is installed) now,
// exactly as Send would; m.Payload is retained until the flush.
// Loopback messages are sent immediately — there is no datagram to
// save on the way to ourselves.
func (e *BatchingEndpoint) Defer(m wire.Message) error {
	if int(m.To) >= len(e.peers) {
		return ErrBadDest
	}
	m.From = uint16(e.inner.ID())
	if m.SimTime == 0 && e.now != nil {
		m.SimTime = e.now()
	}
	if int(m.To) == e.inner.ID() {
		return e.inner.Send(m)
	}
	entry := wire.BatchOverhead + wire.EncodedLen(m)
	pb := e.peers[m.To]
	pb.mu.Lock()
	defer pb.mu.Unlock()
	if len(pb.msgs) > 0 && pb.size+entry > maxBatchBytes {
		if err := e.flushPeerLocked(pb, int(m.To)); err != nil {
			return err
		}
	}
	pb.msgs = append(pb.msgs, m)
	pb.size += entry
	return nil
}

// Flush transmits every pending batch. The protocol calls it at the
// end of a fan-out burst (e.g. after deferring all barrier diffs);
// replies for deferred requests cannot arrive before their Flush.
func (e *BatchingEndpoint) Flush() error {
	var first error
	for to, pb := range e.peers {
		pb.mu.Lock()
		if err := e.flushPeerLocked(pb, to); err != nil && first == nil {
			first = err
		}
		pb.mu.Unlock()
	}
	return first
}

// flushPeerLocked ships pb's pending messages. Caller holds pb.mu.
// A pending count of one goes out as a plain message (an envelope
// would only add bytes); two or more become one TBatch whose payload
// is built in a pooled slab, released once the inner endpoint has
// encoded or copied it (every Endpoint does so before Send returns).
func (e *BatchingEndpoint) flushPeerLocked(pb *peerBuf, to int) error {
	n := len(pb.msgs)
	if n == 0 {
		return nil
	}
	var err error
	if n == 1 {
		err = e.inner.Send(pb.msgs[0])
	} else {
		payload := wire.GetSlab(pb.size)
		for i := range pb.msgs {
			payload = wire.AppendBatchEntry(payload, pb.msgs[i])
		}
		if e.counters != nil {
			e.counters.BatchesSent.Add(1)
			e.counters.BatchedMsgs.Add(int64(n))
		}
		err = e.inner.Send(wire.Message{Type: wire.TBatch, To: uint16(to), Payload: payload})
		wire.PutSlab(payload)
	}
	for i := range pb.msgs {
		pb.msgs[i] = wire.Message{} // drop payload references
	}
	pb.msgs = pb.msgs[:0]
	pb.size = 0
	return err
}

// Recv returns the next protocol message, transparently unwrapping
// TBatch envelopes into their sub-messages in order.
func (e *BatchingEndpoint) Recv() (wire.Message, bool) {
	e.rmu.Lock()
	defer e.rmu.Unlock()
	for {
		if len(e.rq) > 0 {
			m := e.rq[0]
			e.rq[0] = wire.Message{}
			e.rq = e.rq[1:]
			if len(e.rq) == 0 {
				e.rq = nil
			}
			return m, true
		}
		m, ok := e.inner.Recv()
		if !ok {
			return wire.Message{}, false
		}
		if m.Type != wire.TBatch {
			return m, true
		}
		if err := wire.DecodeBatch(m.Payload, func(sm wire.Message) error {
			e.rq = append(e.rq, sm)
			return nil
		}); err != nil {
			// Batches are produced only by a peer's Defer over a
			// reliable exactly-once transport; a malformed one is a
			// protocol-breaking bug, not a network condition.
			panic("transport: malformed batch envelope: " + err.Error())
		}
		m.Release() // DecodeBatch copied every entry out
	}
}

// Drain ships every pending batch, then drains the inner endpoint.
func (e *BatchingEndpoint) Drain(timeout time.Duration) error {
	if err := e.Flush(); err != nil {
		return err
	}
	return e.inner.Drain(timeout)
}

// Close shuts the inner endpoint down; pending deferred messages are
// dropped (a closing node has abandoned its round anyway).
func (e *BatchingEndpoint) Close() error { return e.inner.Close() }
