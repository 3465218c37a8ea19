// Package wire defines the message format of the DSM protocols.
//
// LOTS machines communicate over dedicated point-to-point socket channels
// using UDP/IP (§3.6). Because sockets are used, the maximum message size
// cannot exceed 64 KB (§5); larger messages are split into fragments
// before sending and reassembled at the receiver. This package implements
// the header layout, the fragmentation/reassembly machinery, and small
// sticky-error payload encode/decode helpers shared by the LOTS runtime
// and the JIAJIA baseline.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
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

	// Transport-level.
	TAck // sliding-window acknowledgement (UDP transport)

	// Lease coherence (revalidate instead of invalidate at barriers).
	TLeaseQ     // cacher -> home: batched revalidation of leased copies
	TLeaseReply // home -> cacher: per-object keep/demote verdicts

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
	TAck:             "ack",
	TLeaseQ:          "lease-q",
	TLeaseReply:      "lease-reply",
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
func (t Type) Valid() bool { return t > TInvalid && t < tMax }

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
	Type  Type
	From  uint16 // sending node ID
	To    uint16 // destination node ID
	ReqID uint64 // RPC correlation ID; 0 for one-way messages
	// SimTime is the sender's simulated clock (ns) when the message was
	// sent; the receiver merges its clock to SimTime + transfer cost.
	SimTime int64
	Payload []byte
	// Trace is the optional causal trace context. The zero value adds
	// no wire bytes, keeping the untraced path byte-identical (and the
	// alloc guards meaningful) with tracing compiled in.
	Trace TraceCtx
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

// EncodeInto appends the encoded form of m (header + payload + optional
// trace extension) to dst and returns the extended slice. With a dst of
// sufficient capacity it performs no allocation.
func EncodeInto(dst []byte, m Message) []byte {
	t := byte(m.Type)
	traced := !m.Trace.Zero()
	if traced {
		t |= traceFlag
	}
	dst = append(dst, t)
	dst = binary.LittleEndian.AppendUint16(dst, m.From)
	dst = binary.LittleEndian.AppendUint16(dst, m.To)
	dst = binary.LittleEndian.AppendUint64(dst, m.ReqID)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.SimTime))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Payload)))
	dst = append(dst, m.Payload...)
	if traced {
		dst = binary.LittleEndian.AppendUint16(dst, m.Trace.Rank)
		dst = binary.LittleEndian.AppendUint32(dst, m.Trace.Epoch)
		dst = binary.LittleEndian.AppendUint64(dst, m.Trace.Seq)
	}
	return dst
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

// Decode parses a buffer produced by EncodeInto. The returned payload is
// an independent copy of buf's bytes.
func Decode(buf []byte) (Message, error) {
	m, err := DecodeInPlace(buf)
	if err == nil && len(m.Payload) > 0 {
		m.Payload = append([]byte(nil), m.Payload...)
	}
	return m, err
}

// DecodeInPlace parses a buffer produced by EncodeInto without copying:
// the returned message's Payload aliases buf. The caller must not
// release or reuse buf while the message is live — use Decode when
// the message outlives the buffer.
func DecodeInPlace(buf []byte) (Message, error) {
	if len(buf) < headerLen {
		return Message{}, ErrTruncated
	}
	t := buf[0]
	traced := t&traceFlag != 0
	m := Message{
		Type:    Type(t &^ traceFlag),
		From:    binary.LittleEndian.Uint16(buf[1:]),
		To:      binary.LittleEndian.Uint16(buf[3:]),
		ReqID:   binary.LittleEndian.Uint64(buf[5:]),
		SimTime: int64(binary.LittleEndian.Uint64(buf[13:])),
	}
	if !m.Type.Valid() {
		return Message{}, ErrBadType
	}
	n := binary.LittleEndian.Uint32(buf[21:])
	if len(buf) < headerLen+int(n) {
		return Message{}, ErrTruncated
	}
	if traced {
		ext := headerLen + int(n)
		if len(buf) < ext+traceExtLen {
			return Message{}, ErrTruncated
		}
		m.Trace = TraceCtx{
			Rank:  binary.LittleEndian.Uint16(buf[ext:]),
			Epoch: binary.LittleEndian.Uint32(buf[ext+2:]),
			Seq:   binary.LittleEndian.Uint64(buf[ext+6:]),
		}
		if m.Trace.Zero() {
			// A flagged frame must carry a non-zero context: the zero
			// context is the "untraced" encoding and never sets the flag,
			// so re-encoding an accepted frame is always byte-faithful.
			return Message{}, fmt.Errorf("wire: trace flag set with zero trace context")
		}
	}
	if n > 0 {
		m.Payload = buf[headerLen : headerLen+int(n) : headerLen+int(n)]
	}
	return m, nil
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
	nFrags := NumFragments(len(encoded))
	for i := 0; i < nFrags; i++ {
		lo := i * MaxFragPayload
		hi := lo + MaxFragPayload
		if hi > len(encoded) {
			hi = len(encoded)
		}
		chunk := encoded[lo:hi]
		f := GetSlab(headroom + fragHeaderLen + len(chunk))[:headroom+fragHeaderLen]
		binary.LittleEndian.PutUint64(f[headroom:], msgID)
		binary.LittleEndian.PutUint16(f[headroom+8:], uint16(i))
		binary.LittleEndian.PutUint16(f[headroom+10:], uint16(nFrags))
		binary.LittleEndian.PutUint32(f[headroom+12:], uint32(len(chunk)))
		f = append(f, chunk...)
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
// Fragment copies come from the slab pool and are released as each
// message completes. A multi-fragment message is joined straight into
// the one heap buffer its delivered payload then owns, and a
// single-fragment message is copied out of the caller's frame: one
// allocation per delivered message, because protocol handlers retain
// payloads.
type Reassembler struct {
	pending map[uint64]*partial
	free    []*partial // released partials, reused by the next message
}

type partial struct {
	frags    [][]byte
	received int
	bytes    int
}

// NewReassembler returns an empty reassembler. Delivered payloads are
// independent copies the caller may retain indefinitely.
func NewReassembler() *Reassembler {
	return &Reassembler{pending: make(map[uint64]*partial)}
}

func (r *Reassembler) recycle(p *partial) {
	for i, f := range p.frags {
		if f != nil {
			PutSlab(f)
			p.frags[i] = nil
		}
	}
	p.received, p.bytes = 0, 0
	r.free = append(r.free, p)
}

func (r *Reassembler) newPartial(count int) *partial {
	var p *partial
	if k := len(r.free); k > 0 {
		p = r.free[k-1]
		r.free[k-1] = nil
		r.free = r.free[:k-1]
	} else {
		p = &partial{}
	}
	if cap(p.frags) < count {
		p.frags = make([][]byte, count)
	} else {
		p.frags = p.frags[:count]
	}
	return p
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
	n := int(binary.LittleEndian.Uint32(frag[12:]))
	if count == 0 || idx >= count {
		return Message{}, false, fmt.Errorf("wire: bad fragment index %d/%d", idx, count)
	}
	if len(frag) < fragHeaderLen+n {
		return Message{}, false, ErrTruncated
	}
	p := r.pending[msgID]
	if p == nil && count == 1 {
		// Single-fragment fast path (the common case): decode straight
		// out of the caller's frame, never touching the pending map.
		m, err := Decode(frag[fragHeaderLen : fragHeaderLen+n])
		return m, err == nil, err
	}
	if p == nil {
		p = r.newPartial(count)
		r.pending[msgID] = p
	}
	if len(p.frags) != count {
		return Message{}, false, fmt.Errorf("wire: fragment count mismatch for msg %d", msgID)
	}
	if p.frags[idx] == nil {
		p.frags[idx] = append(GetSlab(n), frag[fragHeaderLen:fragHeaderLen+n]...)
		p.received++
		p.bytes += n
	}
	if p.received < count {
		return Message{}, false, nil
	}
	delete(r.pending, msgID)
	// The joined buffer is built for this message alone, so the
	// delivered payload aliases it for good.
	whole := make([]byte, 0, p.bytes)
	for _, f := range p.frags {
		whole = append(whole, f...)
	}
	r.recycle(p)
	m, err := DecodeInPlace(whole)
	return m, err == nil, err
}

// PendingBytes reports the bytes currently buffered in incomplete
// messages — the memory-consumption bottleneck the paper calls out.
func (r *Reassembler) PendingBytes() int {
	total := 0
	for _, p := range r.pending {
		total += p.bytes
	}
	return total
}

// PendingMessages reports how many messages are partially assembled.
func (r *Reassembler) PendingMessages() int { return len(r.pending) }
