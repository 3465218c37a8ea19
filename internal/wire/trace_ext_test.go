package wire

import (
	"bytes"
	"testing"
)

// The trace-context extension must be free when absent: a zero ctx
// encodes to exactly the pre-extension byte layout, so byte accounting,
// batch framing, and the zero-alloc guards are unaffected by tracing
// being compiled in.
func TestZeroTraceCtxAddsNoBytes(t *testing.T) {
	m := Message{Type: TObjFetchReq, From: 1, To: 2, ReqID: 9, SimTime: 55, Payload: []byte("abc")}
	if got, want := EncodedLen(m), headerLen+3; got != want {
		t.Fatalf("EncodedLen = %d, want %d", got, want)
	}
	enc := encode(m)
	if len(enc) != headerLen+3 {
		t.Fatalf("encoded %d bytes, want %d", len(enc), headerLen+3)
	}
	if enc[0]&traceFlag != 0 {
		t.Fatalf("untraced frame has trace flag set: type byte %#x", enc[0])
	}
}

func TestTraceCtxRoundTrip(t *testing.T) {
	m := Message{
		Type: TObjFetchReq, From: 1, To: 2, ReqID: 9, SimTime: 55,
		Payload: []byte("abc"),
		Trace:   TraceCtx{Rank: 3, Epoch: 47, Seq: 12345},
	}
	if got, want := EncodedLen(m), headerLen+3+traceExtLen; got != want {
		t.Fatalf("EncodedLen = %d, want %d", got, want)
	}
	enc := encode(m)
	if len(enc) != EncodedLen(m) {
		t.Fatalf("encoded %d bytes, EncodedLen says %d", len(enc), EncodedLen(m))
	}
	if enc[0]&traceFlag == 0 {
		t.Fatalf("traced frame missing trace flag: type byte %#x", enc[0])
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Type != m.Type || got.Trace != m.Trace || !bytes.Equal(got.Payload, m.Payload) {
		t.Fatalf("round trip mismatch: %+v != %+v", got, m)
	}
}

func TestTraceCtxEmptyPayload(t *testing.T) {
	m := Message{Type: TLockFree, Trace: TraceCtx{Rank: 0, Epoch: 0, Seq: 1}}
	got, err := Decode(encode(m))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Trace != m.Trace {
		t.Fatalf("trace ctx lost on empty payload: %+v", got.Trace)
	}
}

func TestTraceCtxTruncatedExtRejected(t *testing.T) {
	m := Message{Type: TLockReq, Payload: []byte("x"), Trace: TraceCtx{Rank: 1, Epoch: 2, Seq: 3}}
	enc := encode(m)
	for cut := 1; cut <= traceExtLen; cut++ {
		if _, err := Decode(enc[:len(enc)-cut]); err == nil {
			t.Fatalf("Decode accepted a frame with %d trace bytes missing", cut)
		}
	}
}

func TestTraceFlagWithZeroCtxRejected(t *testing.T) {
	// Hand-craft a flagged frame whose extension is all zeros: the zero
	// ctx is the "untraced" encoding, so this frame cannot have been
	// produced by Encode and must not decode to something that
	// re-encodes differently.
	m := Message{Type: TLockReq, Payload: []byte("x")}
	enc := encode(m)
	enc[0] |= traceFlag
	enc = append(enc, make([]byte, traceExtLen)...)
	if _, err := Decode(enc); err == nil {
		t.Fatal("Decode accepted trace flag with zero context")
	}
}

func TestTraceCtxThroughBatch(t *testing.T) {
	msgs := []Message{
		{Type: TBarrierDiff, From: 1, To: 2, ReqID: 5, Payload: []byte("diff-a"),
			Trace: TraceCtx{Rank: 1, Epoch: 9, Seq: 77}},
		{Type: TBarrierDiff, From: 1, To: 2, ReqID: 6, Payload: []byte("diff-b")},
	}
	var batch []byte
	for _, m := range msgs {
		batch = AppendBatchEntry(batch, m)
	}
	var got []Message
	err := DecodeBatch(batch, func(m Message) error {
		got = append(got, m)
		return nil
	})
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d messages, want 2", len(got))
	}
	if got[0].Trace != msgs[0].Trace {
		t.Fatalf("batched trace ctx mismatch: %+v != %+v", got[0].Trace, msgs[0].Trace)
	}
	if !got[1].Trace.Zero() {
		t.Fatalf("untraced batch entry grew a ctx: %+v", got[1].Trace)
	}
}

func TestTraceCtxThroughFragments(t *testing.T) {
	m := Message{
		Type: TObjFetchReply, From: 2, To: 0, ReqID: 41,
		Payload: bytes.Repeat([]byte{0xCD}, 3*MaxFragPayload/2), // forces 2+ fragments
		Trace:   TraceCtx{Rank: 2, Epoch: 8, Seq: 99},
	}
	re := NewReassembler()
	var got Message
	done := false
	for _, fr := range fragments(encode(m), 777) {
		g, d, err := re.Feed(fr)
		if err != nil {
			t.Fatalf("Feed: %v", err)
		}
		if d {
			got, done = g, true
		}
	}
	if !done {
		t.Fatal("fragmented traced message never completed")
	}
	if got.Trace != m.Trace || !bytes.Equal(got.Payload, m.Payload) {
		t.Fatal("traced message corrupted through fragmentation")
	}
}
