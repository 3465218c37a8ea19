// Golden for slabsafe: pool-owned slabs must not be used or escape
// after their PutSlab. The "deleted copy" cases model the PR 6
// ReadCtrl bug: a decoded result that aliases the pooled receive
// buffer survives the deferred PutSlab.
package slabs

import (
	"unsafe"

	"repro/internal/wire"
)

var global []byte

type frame struct{ raw []byte }

func okCopyString(n int) string {
	p := wire.GetSlab(n)[:n]
	defer wire.PutSlab(p)
	return string(p) // string conversion copies: safe
}

func okCopyAppend(n int) []byte {
	p := wire.GetSlab(n)[:n]
	defer wire.PutSlab(p)
	return append([]byte(nil), p...) // append to nil copies: safe
}

func okRawCopyPastPut(n int) []byte {
	p := wire.GetSlab(n)[:n]
	r := wire.NewReader(p)
	b := r.Raw(4) // Raw copies: b does not alias p
	wire.PutSlab(p)
	return b
}

func okStraightLine(n int) {
	p := wire.GetSlab(n)
	p = append(p, 1, 2, 3)
	wire.PutSlab(p)
}

func returnPastDeferredPut(n int) []byte {
	p := wire.GetSlab(n)[:n]
	defer wire.PutSlab(p)
	return p // want `returned past its deferred PutSlab`
}

func returnSubslicePastPut(n int) []byte {
	p := wire.GetSlab(n)
	defer wire.PutSlab(p)
	return p[4:] // want `returned past its deferred PutSlab`
}

func unsafeStringPastPut(n int) string {
	p := wire.GetSlab(n)[:n]
	defer wire.PutSlab(p)
	return unsafe.String(&p[0], len(p)) // want `returned past its deferred PutSlab`
}

func useAfterPut(n int) byte {
	p := wire.GetSlab(n)[:n]
	wire.PutSlab(p)
	return p[0] // want `use of pooled slab p after PutSlab`
}

func aliasUseAfterPut(n int) byte {
	p := wire.GetSlab(n)[:n]
	q := p[4:]
	wire.PutSlab(p)
	return q[0] // want `use of pooled slab p after PutSlab`
}

func doublePut(n int) {
	p := wire.GetSlab(n)
	wire.PutSlab(p)
	wire.PutSlab(p) // want `second PutSlab of slab p`
}

func storeThenPut(n int) {
	p := wire.GetSlab(n)
	global = p
	wire.PutSlab(p) // want `PutSlab frees slab p while the store`
}

func storeAfterDeferredPut(f *frame, n int) {
	p := wire.GetSlab(n)
	defer wire.PutSlab(p)
	f.raw = p // want `stored to f.raw after its PutSlab is scheduled`
}

func goroutineCapture(n int) {
	p := wire.GetSlab(n)
	defer wire.PutSlab(p)
	go func() {
		_ = p[0] // want `pooled slab p captured by a goroutine outlives its PutSlab`
	}()
}

func storeThenDeferPut(n int) {
	p := wire.GetSlab(n)
	global = p
	defer wire.PutSlab(p) // want `deferred PutSlab frees slab p that an earlier store still references`
}

// The decoded-alias case: DecodeInPlace's Payload points into the
// pooled buffer, so returning it past the PutSlab is the ReadCtrl bug.
func decodedPayloadEscapes(m wire.Message) []byte {
	enc := wire.EncodePooled(m)
	defer wire.PutSlab(enc)
	dec, err := wire.DecodeInPlace(enc)
	if err != nil {
		return nil
	}
	return dec.Payload // want `returned past its deferred PutSlab`
}

func decodedPayloadCopied(m wire.Message) []byte {
	enc := wire.EncodePooled(m)
	defer wire.PutSlab(enc)
	dec, err := wire.DecodeInPlace(enc)
	if err != nil {
		return nil
	}
	return append([]byte(nil), dec.Payload...)
}

// Intra-package aliasing helper: the summary must see through it.
func tail(b []byte) []byte { return b[8:] }

func helperAliasEscapes(n int) []byte {
	p := wire.GetSlab(n)
	defer wire.PutSlab(p)
	return tail(p) // want `returned past its deferred PutSlab`
}

// A closure passed directly to a call runs synchronously: captures of
// a live slab are fine (the transport Send pattern).
func forEach(b []byte, fn func([]byte)) { fn(b) }

func okSynchronousClosure(n int) int {
	p := wire.GetSlab(n)
	total := 0
	forEach(p, func(chunk []byte) {
		total += len(chunk) + len(p)
	})
	wire.PutSlab(p)
	return total
}

func releasedOnOneBranchOnly(n int, cond bool) byte {
	p := wire.GetSlab(n)[:n]
	if cond {
		wire.PutSlab(p)
	}
	return p[0] // want `use of pooled slab p after PutSlab`
}

func suppressedEscape(n int) []byte {
	p := wire.GetSlab(n)
	defer wire.PutSlab(p)
	return p //lint:allow slabsafe caller copies synchronously before the next pool operation
}

// A delivered message's Release hands its payload back to the pool: the
// payload, and what aliases it (a Reader over it, the bytes
// Bytes32InPlace returns), is dead after it.
func payloadReadAfterRelease(m wire.Message) byte {
	m.Release()
	return m.Payload[0] // want `use of pooled slab m after Release`
}

func inPlaceBytesAfterRelease(m wire.Message, dst []byte) {
	data := wire.NewReader(m.Payload).Bytes32InPlace()
	m.Release()
	copy(dst, data) // want `use of pooled slab m after Release`
}

func okCopyThenRelease(m wire.Message, dst []byte) {
	data := wire.NewReader(m.Payload).Bytes32InPlace()
	copy(dst, data)
	m.Release()
}

// Release of a message already released does nothing, but a copy of
// the message still carries the pooled payload: releasing both hands
// one slab to the pool twice.
func releaseTwice(m wire.Message) {
	dup := m
	m.Release()
	dup.Release() // want `second Release of slab m`
}

func pooledBufferUseAfterPut(n int) []byte {
	w := wire.PooledBuffer(n)
	w.U32(7)
	wire.PutSlab(w.Bytes())
	return w.Bytes() // want `use of pooled slab w after PutSlab`
}
