// Package wire defines the message format of the DSM protocols.
//
// LOTS machines communicate over dedicated point-to-point socket channels
// using UDP/IP (§3.6). Because sockets are used, the maximum message size
// cannot exceed 64 KB (§5); larger messages are split into fragments
// before sending and reassembled at the receiver. This package implements
// the header layout, the fragmentation/reassembly machinery, and small
// sticky-error payload encode/decode helpers shared by the LOTS runtime
// and the JIAJIA baseline.
//
// A payload byte is copied once on each side of a link. The sender
// cuts fragment frames straight from the message (FragmentMessage), with
// room in front for the transport's framing, so there is no encoded copy
// of the whole message; the receiver's Reassembler copies each fragment
// from the transport's read buffer to its place in the one buffer the
// delivered message then owns. Frames come from the slab pool (pool.go)
// and are released at the transport seams. Every delivered payload,
// of one fragment or of several, is a pooled slab with an owner: a
// handler that only reads the payload hands it back with
// Message.Release, and one that keeps it — or aliases it
// (Reader.Bytes32InPlace, diffing.DecodeDiff) — never does, leaving it
// to the garbage collector. A sender that builds a payload in a
// PooledBuffer puts it back once the endpoint's Send, which copies it,
// has returned.
// Every count and length read from a peer is bounded by the bytes
// actually present before it sizes anything (Reader.Count, Reader.need,
// the reassembler's clamp on the length a first fragment states).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Type identifies a protocol message.
type Type uint8

// Protocol message types. The LOTS runtime and the JIAJIA baseline share
// the wire layer; J-prefixed types belong to the page-based baseline.
const (
	TInvalid Type = iota

	// Lock protocol (homeless write-update, §3.4).
	TLockReq   // acquirer -> lock manager
	TLockGrant // previous holder (or manager) -> acquirer, carries scope updates
	TLockFree  // holder -> manager when no waiter is queued

	// Barrier protocol (migrating-home write-invalidate, §3.4).
	TBarrierArrive // node -> barrier manager, carries write notices
	TBarrierExit   // manager -> node, carries home migrations + diff orders
	TBarrierDiff   // writer -> home, diffs ordered by the manager
	TBarrierDiffAck

	// Object access (§3.3).
	TObjFetchReq   // faulting node -> home/holder
	TObjFetchReply // carries the clean object copy or an on-demand diff

	// Remote swap extension (§5 future work: swapping to remote disks).
	TRemoteSwapOut
	TRemoteSwapIn
	TRemoteSwapReply

	// JIAJIA baseline (page-based, home-based).
	TJPageReq   // faulting node -> page home
	TJPageReply // home -> faulting node, full page
	TJDiff      // releasing node -> page home
	TJDiffAck

	// Retired; the blanks keep the values of the types after them.
	_
	_
	_

	// Transport-level coalescing: one envelope carrying several encoded
	// protocol messages for the same peer (payload layout in batch.go).
	TBatch

	// Checkpoint/recovery (barrier-time checkpoints, buddy replication,
	// re-homing after a rank death; payload layout in ckpt.go).
	TCkptPut       // home -> buddy: incremental checkpoint of one epoch
	TCkptAck       // buddy -> home: checkpoint persisted
	TRehome        // recovering rank -> peer: fetch an owner's checkpointed state
	TRehomeReply   // peer -> recovering rank: materialized checkpoint (or not found)
	TRecoverArrive // recovering rank -> rank 0: restorable epochs per owner
	TRecoverPlan   // rank 0 -> rank: chosen epoch + owner/home/source assignments
	TRecoverReady  // rank -> rank 0: object IDs this rank now homes
	TRecoverHomes  // rank 0 -> rank: the full object -> home map

	tMax
)

var typeNames = [...]string{
	TInvalid:         "invalid",
	TLockReq:         "lock-req",
	TLockGrant:       "lock-grant",
	TLockFree:        "lock-free",
	TBarrierArrive:   "barrier-arrive",
	TBarrierExit:     "barrier-exit",
	TBarrierDiff:     "barrier-diff",
	TBarrierDiffAck:  "barrier-diff-ack",
	TObjFetchReq:     "obj-fetch-req",
	TObjFetchReply:   "obj-fetch-reply",
	TRemoteSwapOut:   "remote-swap-out",
	TRemoteSwapIn:    "remote-swap-in",
	TRemoteSwapReply: "remote-swap-reply",
	TJPageReq:        "j-page-req",
	TJPageReply:      "j-page-reply",
	TJDiff:           "j-diff",
	TJDiffAck:        "j-diff-ack",
	TBatch:           "batch",
	TCkptPut:         "ckpt-put",
	TCkptAck:         "ckpt-ack",
	TRehome:          "rehome",
	TRehomeReply:     "rehome-reply",
	TRecoverArrive:   "recover-arrive",
	TRecoverPlan:     "recover-plan",
	TRecoverReady:    "recover-ready",
	TRecoverHomes:    "recover-homes",
}

func (t Type) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Valid reports whether t is a known protocol message type.
func (t Type) Valid() bool { return t > TInvalid && t < tMax && typeNames[t] != "" }

// TraceCtx is the compact causal trace context a message can carry:
// the sender's rank, the epoch the traced operation belongs to, and
// the sender's per-rank trace sequence number. A zero TraceCtx means
// "untraced" and costs zero wire bytes; a non-zero one rides as a
// fixed traceExtLen-byte extension after the payload, flagged by
// traceFlag in the type byte. The receiver links its own span to the
// sender's with it (internal/trace flow events).
type TraceCtx struct {
	Rank  uint16
	Epoch uint32
	Seq   uint64
}

// Zero reports whether the context is the untraced zero value.
func (tc TraceCtx) Zero() bool { return tc == TraceCtx{} }

// traceFlag marks a type byte whose frame carries a TraceCtx
// extension. Protocol types stop well below 0x80 (tMax is enforced at
// compile time below), so the bit is free.
const traceFlag = 0x80

// traceExtLen is the encoded size of a TraceCtx: rank (2) + epoch (4)
// + seq (8), little-endian, appended after the payload.
const traceExtLen = 2 + 4 + 8

// The trace flag must never collide with a real message type.
var _ = [1]struct{}{}[tMax&traceFlag]

// Message is one logical protocol message. It may span several wire
// fragments when the payload exceeds MaxDatagram.
type Message struct {
	Type Type
	From uint16 // sending node ID
	To   uint16 // destination node ID
	// pooled marks a payload the Reassembler delivered in a pooled
	// slab, which Release hands back. It sits in the padding after To,
	// so a Message stays 64 bytes on 64-bit hosts.
	pooled bool
	ReqID  uint64 // RPC correlation ID; 0 for one-way messages
	// SimTime is the sender's simulated clock (ns) when the message was
	// sent; the receiver merges its clock to SimTime + transfer cost.
	SimTime int64
	Payload []byte
	// Trace is the optional causal trace context. The zero value adds
	// no wire bytes, keeping the untraced path byte-identical (and the
	// alloc guards meaningful) with tracing compiled in.
	Trace TraceCtx
}

// Release hands the payload of a message the Reassembler delivered
// back to the slab pool. Call it once nothing reads m.Payload, or any
// slice of it, any more; a consumer that keeps the payload never calls
// it, and the garbage collector frees the slab as it would any buffer.
// On any other message, and on one already released, Release does
// nothing.
func (m *Message) Release() {
	if !m.pooled {
		return
	}
	PutSlab(m.Payload)
	m.Payload, m.pooled = nil, false
}

// headerLen is the encoded size of the fixed message header.
const headerLen = 1 + 2 + 2 + 8 + 8 + 4

// MaxDatagram is the maximum wire fragment size. The paper notes the
// socket-imposed 64 KB limit on message size (§5).
const MaxDatagram = 64 << 10

// fragHeaderLen is the per-fragment header: message ID (8), fragment
// index (2), fragment count (2), fragment payload length (4).
const fragHeaderLen = 8 + 2 + 2 + 4

// flowReserve leaves room inside the 64 KB datagram budget for the
// transport's flow-control framing (and stays under the 65507-byte IPv4
// UDP payload ceiling).
const flowReserve = 64

// MaxFragPayload is the usable payload per fragment.
const MaxFragPayload = MaxDatagram - fragHeaderLen - flowReserve

// EncodedLen returns the wire size of m as EncodeInto produces it:
// the fixed header plus the payload, plus the trace extension when the
// message carries one. Transports use it as the single definition of
// per-message byte accounting, so BytesSent and BytesRecv measure the
// same thing on every transport and on both sides of a link.
func EncodedLen(m Message) int {
	n := headerLen + len(m.Payload)
	if !m.Trace.Zero() {
		n += traceExtLen
	}
	return n
}

// appendHeader appends m's fixed header: type (with the trace flag),
// from, to, request ID, simulated time, payload length.
func appendHeader(dst []byte, m Message) []byte {
	t := byte(m.Type)
	if !m.Trace.Zero() {
		t |= traceFlag
	}
	dst = append(dst, t)
	dst = binary.LittleEndian.AppendUint16(dst, m.From)
	dst = binary.LittleEndian.AppendUint16(dst, m.To)
	dst = binary.LittleEndian.AppendUint64(dst, m.ReqID)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.SimTime))
	return binary.LittleEndian.AppendUint32(dst, uint32(len(m.Payload)))
}

// appendTraceExt appends m's trace extension, if it carries one.
func appendTraceExt(dst []byte, m Message) []byte {
	if m.Trace.Zero() {
		return dst
	}
	dst = binary.LittleEndian.AppendUint16(dst, m.Trace.Rank)
	dst = binary.LittleEndian.AppendUint32(dst, m.Trace.Epoch)
	return binary.LittleEndian.AppendUint64(dst, m.Trace.Seq)
}

// EncodeInto appends the encoded form of m (header + payload + optional
// trace extension) to dst and returns the extended slice. With a dst of
// sufficient capacity it performs no allocation.
func EncodeInto(dst []byte, m Message) []byte {
	dst = appendHeader(dst, m)
	dst = append(dst, m.Payload...)
	return appendTraceExt(dst, m)
}

// EncodePooled encodes m into a slab from the pool. The caller owns
// the returned buffer and releases it with PutSlab once the transport
// is done with it (after fragmenting, or after the write completes).
func EncodePooled(m Message) []byte {
	return EncodeInto(GetSlab(EncodedLen(m)), m)
}

// ErrTruncated is returned when a buffer is too short to decode.
var ErrTruncated = errors.New("wire: truncated message")

// ErrBadType is returned when the decoded type byte is unknown.
var ErrBadType = errors.New("wire: unknown message type")

var errZeroTrace = errors.New("wire: trace flag set with zero trace context")

// Decode parses a buffer produced by EncodeInto. The returned payload is
// an independent heap copy of buf's bytes, which Release leaves alone.
func Decode(buf []byte) (Message, error) {
	m, err := DecodeInPlace(buf)
	if err == nil && len(m.Payload) > 0 {
		m.Payload = append([]byte(nil), m.Payload...)
	}
	return m, err
}

// decodePooled is Decode with the payload copied into a slab from the
// pool, which the message owns and Message.Release hands back. A buffer
// that does not decode takes no slab, and an empty payload none either.
func decodePooled(buf []byte) (Message, error) {
	m, err := DecodeInPlace(buf)
	if err == nil && len(m.Payload) > 0 {
		m.Payload, m.pooled = append(GetSlab(len(m.Payload)), m.Payload...), true
	}
	return m, err
}

// DecodeInPlace parses a buffer produced by EncodeInto without copying:
// the returned message's Payload aliases buf. The caller must not
// release or reuse buf while the message is live — use Decode when
// the message outlives the buffer.
func DecodeInPlace(buf []byte) (Message, error) {
	var m Message
	body, n, traced, err := m.decodeHeader(buf)
	if err == nil {
		err = m.decodeBody(n, traced, body)
	}
	if err != nil {
		return Message{}, err
	}
	return m, nil
}

// decodeHeader sets m's fields from the fixed header at the start of
// buf and returns the bytes after it, the payload length it states and
// whether a trace extension follows the payload.
func (m *Message) decodeHeader(buf []byte) (body []byte, n uint32, traced bool, err error) {
	if len(buf) < headerLen {
		return nil, 0, false, ErrTruncated
	}
	t := buf[0]
	m.Type = Type(t &^ traceFlag)
	if !m.Type.Valid() {
		return nil, 0, false, ErrBadType
	}
	m.From = binary.LittleEndian.Uint16(buf[1:])
	m.To = binary.LittleEndian.Uint16(buf[3:])
	m.ReqID = binary.LittleEndian.Uint64(buf[5:])
	m.SimTime = int64(binary.LittleEndian.Uint64(buf[13:]))
	return buf[headerLen:], binary.LittleEndian.Uint32(buf[21:]), t&traceFlag != 0, nil
}

// decodeBody completes m, whose header stated an n-byte payload, from
// body, the bytes after that header: the payload, aliased, then the
// trace extension when traced. Bytes past those are the caller's to
// judge.
func (m *Message) decodeBody(n uint32, traced bool, body []byte) error {
	if uint64(len(body)) < uint64(n) {
		return ErrTruncated
	}
	if traced {
		ext := body[n:]
		if len(ext) < traceExtLen {
			return ErrTruncated
		}
		m.Trace = TraceCtx{
			Rank:  binary.LittleEndian.Uint16(ext),
			Epoch: binary.LittleEndian.Uint32(ext[2:]),
			Seq:   binary.LittleEndian.Uint64(ext[6:]),
		}
		if m.Trace.Zero() {
			// A flagged frame must carry a non-zero context: the zero
			// context is the "untraced" encoding and never sets the flag,
			// so re-encoding an accepted frame is always byte-faithful.
			return errZeroTrace
		}
	}
	if n > 0 {
		m.Payload = body[:n:n]
	}
	return nil
}

// NumFragments reports how many wire fragments an encoded message of
// n bytes splits into (at least one).
func NumFragments(n int) int {
	f := (n + MaxFragPayload - 1) / MaxFragPayload
	if f == 0 {
		f = 1
	}
	return f
}

// ForEachFragment splits an encoded message into wire fragments of at
// most MaxDatagram bytes each, stamped with msgID for reassembly; a
// message that fits yields exactly one fragment. Every fragment frame
// is built in a pooled slab with headroom bytes of reserved (unwritten)
// space at the front — room for the transport's own framing, so the
// transport header, fragment header and chunk land in one buffer with
// no wrapping copy. fn takes ownership of each frame and releases it
// with PutSlab; if fn returns an error, iteration stops (frames already
// handed over stay owned by fn).
func ForEachFragment(encoded []byte, msgID uint64, headroom int, fn func(frame []byte) error) error {
	return cutFragments(&[3][]byte{encoded}, msgID, headroom, fn)
}

// FragmentMessage is ForEachFragment(EncodeInto(nil, m), ...) without
// the encoded message in between: each frame is filled straight from
// m's header, payload and trace extension, so a payload byte is copied
// once, into the frame that carries it. It is how the transports send.
func FragmentMessage(m Message, msgID uint64, headroom int, fn func(frame []byte) error) error {
	var hdr [headerLen]byte
	var ext [traceExtLen]byte
	return cutFragments(&[3][]byte{appendHeader(hdr[:0], m), m.Payload, appendTraceExt(ext[:0], m)}, msgID, headroom, fn)
}

// cutFragments cuts the concatenation of parts into fragment frames.
func cutFragments(parts *[3][]byte, msgID uint64, headroom int, fn func(frame []byte) error) error {
	total := len(parts[0]) + len(parts[1]) + len(parts[2])
	nFrags := NumFragments(total)
	part, rest := 0, parts[0] // rest is what is uncut of parts[part]
	for i := 0; i < nFrags; i++ {
		n := min(MaxFragPayload, total-i*MaxFragPayload)
		f := GetSlab(headroom + fragHeaderLen + n)[:headroom+fragHeaderLen]
		binary.LittleEndian.PutUint64(f[headroom:], msgID)
		binary.LittleEndian.PutUint16(f[headroom+8:], uint16(i))
		binary.LittleEndian.PutUint16(f[headroom+10:], uint16(nFrags))
		binary.LittleEndian.PutUint32(f[headroom+12:], uint32(n))
		for n > 0 {
			for len(rest) == 0 {
				part++
				rest = parts[part]
			}
			k := min(n, len(rest))
			f = append(f, rest[:k]...)
			rest, n = rest[k:], n-k
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// Reassembler rebuilds logical messages from fragments. The paper notes
// (§5) that the receiver must collect all fragments of a message before
// decoding; this reassembler reproduces that behaviour (and its memory
// cost is visible to the harness via PendingBytes).
//
// Every transport delivers a link's frames in order, and a sender cuts
// a message's fragments in index order, so fragments are accepted only
// in order: a repeat of one already joined is a harmless duplicate, and
// one ahead of the next expected drops the message and is an error.
// Nothing is held that the message cannot use next.
//
// A delivered message owns its payload, in a pooled slab that
// Message.Release hands back. A single-fragment message's header is
// decoded in the caller's frame and its payload copied out into a slab
// of its length. A multi-fragment message keeps fragment 0's message
// header decoded and joins what follows it — payload, then any trace
// extension — in a slab sized from the length that header states, each
// fragment copied from the caller's frame straight to its place; the
// delivered payload starts the slab.
type Reassembler struct {
	pending map[uint64]*partial
	free    []*partial // released partials, reused by the next message
}

// maxJoinTrust is the most a first fragment's stated length may commit
// before the bytes arrive: the largest slab class. A longer message
// grows its slab as it fills.
const maxJoinTrust = 1<<20 + largeSlabAllowance

type partial struct {
	count int
	next  int
	// hdr is fragment 0's message header, decoded: the message's fields,
	// the payload length n it states and whether a trace extension
	// follows the payload.
	hdr    Message
	n      uint32
	traced bool
	// body holds what fragments [0, next) carry after the header, joined
	// in a pooled slab; its capacity is the stated length, clamped.
	body []byte
	// want is the stated body length, unclamped by maxJoinTrust: as far
	// as body's growth beyond maxJoinTrust may reach in one step.
	want int
}

// NewReassembler returns an empty reassembler. Delivered payloads are
// the caller's to retain indefinitely, or to Release.
func NewReassembler() *Reassembler {
	return &Reassembler{pending: make(map[uint64]*partial)}
}

// recycle returns p to the free list; p.body is the caller's to hand on.
func (r *Reassembler) recycle(p *partial) {
	*p = partial{}
	r.free = append(r.free, p)
}

// drop discards msgID's partial message and puts its slab back.
func (r *Reassembler) drop(msgID uint64, p *partial) {
	delete(r.pending, msgID)
	PutSlab(p.body)
	r.recycle(p)
}

func (r *Reassembler) newPartial(count int) *partial {
	k := len(r.free)
	if k == 0 {
		return &partial{count: count}
	}
	p := r.free[k-1]
	r.free[k-1] = nil
	r.free = r.free[:k-1]
	p.count = count
	return p
}

// start begins a message with its fragment 0, chunk, which must hold
// the whole message header (a sender's always does). The body slab is
// sized from the length the header states: a peer's word, so clamped to
// what the fragment count could carry and to maxJoinTrust.
func (p *partial) start(chunk []byte) error {
	body, n, traced, err := p.hdr.decodeHeader(chunk)
	if err != nil {
		return err
	}
	p.n, p.traced = n, traced
	stated := int64(n)
	if traced {
		stated += traceExtLen
	}
	p.want = int(min(stated, int64(p.count)*MaxFragPayload-headerLen, math.MaxInt))
	p.body = append(GetSlab(max(min(p.want, maxJoinTrust), len(body))), body...)
	p.next = 1
	return nil
}

// join appends chunk, the next fragment in order, to p.body.
func (p *partial) join(chunk []byte) {
	if len(p.body)+len(chunk) > cap(p.body) {
		// Past what the header was trusted for, or past what it stated:
		// move to a slab at least twice as long, so a long message is
		// copied a bounded number of times, but never reserve beyond the
		// stated length more than this chunk needs.
		grow := max(len(chunk), min(len(p.body), p.want-len(p.body)))
		body := append(GetSlab(len(p.body)+grow), p.body...)
		PutSlab(p.body)
		p.body = body
	}
	p.body = append(p.body, chunk...)
	p.next++
}

// Feed consumes one wire fragment. When the fragment completes a
// message, Feed returns the decoded message and done=true. The caller
// keeps ownership of frag.
func (r *Reassembler) Feed(frag []byte) (Message, bool, error) {
	if len(frag) < fragHeaderLen {
		return Message{}, false, ErrTruncated
	}
	msgID := binary.LittleEndian.Uint64(frag[0:])
	idx := int(binary.LittleEndian.Uint16(frag[8:]))
	count := int(binary.LittleEndian.Uint16(frag[10:]))
	n := int64(binary.LittleEndian.Uint32(frag[12:]))
	if count == 0 || idx >= count {
		return Message{}, false, fmt.Errorf("wire: bad fragment index %d/%d", idx, count)
	}
	if int64(len(frag)-fragHeaderLen) < n {
		return Message{}, false, ErrTruncated
	}
	chunk := frag[fragHeaderLen : fragHeaderLen+int(n)]
	if count == 1 && r.pending[msgID] == nil {
		// Single-fragment fast path (the common case): decode straight
		// out of the caller's frame, never touching the pending map.
		m, err := decodePooled(chunk)
		return m, err == nil, err
	}
	return r.feedPartial(msgID, idx, count, chunk)
}

// feedPartial is Feed for a fragment of a multi-fragment message. It is
// a function of its own so that Feed's frame, which sits on every
// receive path's stack, stays the size the common case needs.
func (r *Reassembler) feedPartial(msgID uint64, idx, count int, chunk []byte) (Message, bool, error) {
	p := r.pending[msgID]
	if p == nil {
		p = r.newPartial(count)
		r.pending[msgID] = p
	}
	switch {
	case p.count != count:
		r.drop(msgID, p)
		return Message{}, false, fmt.Errorf("wire: fragment count mismatch for msg %d", msgID)
	case idx > p.next:
		next := p.next
		r.drop(msgID, p)
		return Message{}, false, fmt.Errorf("wire: fragment %d of msg %d ahead of %d", idx, msgID, next)
	case idx < p.next:
		return Message{}, false, nil // a repeat of a joined fragment
	case idx == 0:
		if err := p.start(chunk); err != nil {
			r.drop(msgID, p)
			return Message{}, false, err
		}
	default:
		p.join(chunk)
	}
	if p.next < count {
		return Message{}, false, nil
	}
	delete(r.pending, msgID)
	m, n, traced, body := p.hdr, p.n, p.traced, p.body
	r.recycle(p)
	err := m.decodeBody(n, traced, body)
	if err == nil && EncodedLen(m) != headerLen+len(body) {
		// The header sized the slab; bytes beyond what it states are a
		// framing error, not slack to carry around.
		err = fmt.Errorf("wire: %d fragments carry %d bytes for a message of %d", count, headerLen+len(body), EncodedLen(m))
	}
	if err != nil {
		PutSlab(body)
		return Message{}, false, err
	}
	// The payload starts the slab and keeps its capacity, so Release can
	// hand the whole slab back.
	m.Payload, m.pooled = body[:n], true
	return m, true, nil
}

// PendingBytes reports the bytes currently buffered in incomplete
// messages — the memory-consumption bottleneck the paper calls out:
// each one's header and the body joined so far.
func (r *Reassembler) PendingBytes() int {
	total := 0
	for _, p := range r.pending {
		total += headerLen + len(p.body)
	}
	return total
}

// PendingMessages reports how many messages are partially assembled.
func (r *Reassembler) PendingMessages() int { return len(r.pending) }
