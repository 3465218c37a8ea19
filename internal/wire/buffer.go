package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Buffer builds message payloads. Append-only; the zero value is ready
// to use. Methods never fail — sizing errors surface on the Reader side.
type Buffer struct {
	b []byte
}

// Bytes returns the accumulated payload.
func (w *Buffer) Bytes() []byte { return w.b }

// Len returns the current payload length.
func (w *Buffer) Len() int { return len(w.b) }

// Grow reserves room for n more bytes, so that a payload whose size is
// known up front is built without regrowing.
func (w *Buffer) Grow(n int) *Buffer {
	w.b = slices.Grow(w.b, n)
	return w
}

// U8 appends one byte.
func (w *Buffer) U8(v uint8) *Buffer {
	w.b = append(w.b, v)
	return w
}

// U16 appends a little-endian uint16.
func (w *Buffer) U16(v uint16) *Buffer {
	w.b = binary.LittleEndian.AppendUint16(w.b, v)
	return w
}

// U32 appends a little-endian uint32.
func (w *Buffer) U32(v uint32) *Buffer {
	w.b = binary.LittleEndian.AppendUint32(w.b, v)
	return w
}

// U64 appends a little-endian uint64.
func (w *Buffer) U64(v uint64) *Buffer {
	w.b = binary.LittleEndian.AppendUint64(w.b, v)
	return w
}

// I64 appends a little-endian int64.
func (w *Buffer) I64(v int64) *Buffer { return w.U64(uint64(v)) }

// Bool appends a boolean as one byte.
func (w *Buffer) Bool(v bool) *Buffer {
	if v {
		return w.U8(1)
	}
	return w.U8(0)
}

// Bytes32 appends a uint32 length prefix followed by the raw bytes.
func (w *Buffer) Bytes32(p []byte) *Buffer {
	w.U32(uint32(len(p)))
	w.b = append(w.b, p...)
	return w
}

// Raw appends bytes with no length prefix.
func (w *Buffer) Raw(p []byte) *Buffer {
	w.b = append(w.b, p...)
	return w
}

// ErrPayload is wrapped by all Reader decoding errors.
var ErrPayload = errors.New("wire: bad payload")

// Reader decodes payloads built by Buffer. It is sticky: after the first
// failure every subsequent call returns the zero value, and Err reports
// the failure. This keeps protocol decoding linear and panic-free.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps p for decoding.
func NewReader(p []byte) *Reader { return &Reader{b: p} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	// n can be a peer's word cast to int: negative where int is 32 bits,
	// or so large that r.off+n would wrap.
	if n < 0 || n > len(r.b)-r.off {
		r.err = fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrPayload, n, r.off, len(r.b))
		return false
	}
	return true
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// Count reads a uint32 element count that the sender follows with that
// many elements of at least elemSize bytes each. A count the rest of
// the payload cannot hold fails the decode and reads as 0, so a corrupt
// or hostile count never sizes an allocation.
func (r *Reader) Count(elemSize int) int {
	n := r.U32()
	if r.err != nil {
		return 0
	}
	if uint64(n) > uint64(r.Remaining()/elemSize) {
		r.err = fmt.Errorf("%w: count %d exceeds the %d bytes left at %d bytes each", ErrPayload, n, r.Remaining(), elemSize)
		return 0
	}
	return int(n)
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Bool reads a one-byte boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Bytes32 reads a uint32-length-prefixed byte slice (copied).
func (r *Reader) Bytes32() []byte {
	return append([]byte(nil), r.Bytes32InPlace()...)
}

// Bytes32InPlace reads a uint32-length-prefixed byte slice without
// copying: the result aliases the payload the Reader wraps and is valid
// only as long as that payload is. Callers that retain the bytes use
// Bytes32.
func (r *Reader) Bytes32InPlace() []byte {
	n := int(r.U32())
	if !r.need(n) {
		return nil
	}
	out := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return out
}

// Raw reads n raw bytes (copied).
func (r *Reader) Raw(n int) []byte {
	if !r.need(n) {
		return nil
	}
	out := append([]byte(nil), r.b[r.off:r.off+n]...)
	r.off += n
	return out
}
