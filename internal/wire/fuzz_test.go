package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzMessageRoundTrip asserts encode -> fragment -> reassemble ->
// decode is lossless for arbitrary message contents, including
// fragment delivery orders a hostile network could produce.
func FuzzMessageRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint16(0), uint16(1), uint64(7), int64(12345), []byte("payload"), int64(0))
	f.Add(uint8(9), uint16(3), uint16(250), uint64(1)<<63, int64(-1), bytes.Repeat([]byte{0xAB}, 200<<10), int64(99))
	f.Add(uint8(17), uint16(65535), uint16(65535), uint64(0), int64(0), []byte{}, int64(-5))
	f.Fuzz(func(t *testing.T, typ uint8, from, to uint16, reqID uint64, simTime int64, payload []byte, shuffleSeed int64) {
		mt := Type(typ)
		if !mt.Valid() {
			// Invalid types must be rejected by Decode, not round-trip.
			enc := encode(Message{Type: mt, Payload: payload})
			if _, err := Decode(enc); err == nil {
				t.Fatalf("Decode accepted invalid type %d", typ)
			}
			return
		}
		if len(payload) > 1<<20 {
			payload = payload[:1<<20]
		}
		m := Message{Type: mt, From: from, To: to, ReqID: reqID, SimTime: simTime, Payload: payload}
		enc := encode(m)
		frags := fragments(enc, 424242)
		if want := (len(enc) + MaxFragPayload - 1) / MaxFragPayload; len(frags) != max(want, 1) {
			t.Fatalf("fragment count %d, want %d", len(frags), max(want, 1))
		}
		// Deliver fragments in order with seeded duplicates of joined
		// ones; every transport hands the reassembler a link's frames in
		// order.
		rng := rand.New(rand.NewSource(shuffleSeed))
		var order []int
		for i := range frags {
			order = append(order, i)
			if i < len(frags)-1 && rng.Intn(2) == 0 {
				order = append(order, rng.Intn(i+1))
			}
		}
		re := NewReassembler()
		var got Message
		done := false
		for i, idx := range order {
			g, d, err := re.Feed(frags[idx])
			if err != nil {
				t.Fatalf("Feed(frag %d): %v", idx, err)
			}
			if d != (i == len(order)-1) {
				t.Fatalf("reassembly completed at fragment %d/%d", i+1, len(order))
			}
			if d {
				got, done = g, true
			}
		}
		if !done {
			t.Fatal("message never completed")
		}
		if got.Type != m.Type || got.From != m.From || got.To != m.To ||
			got.ReqID != m.ReqID || got.SimTime != m.SimTime || !bytes.Equal(got.Payload, m.Payload) {
			t.Fatalf("round trip mismatch: sent %+v, got %+v", m, got)
		}
		if re.PendingMessages() != 0 || re.PendingBytes() != 0 {
			t.Fatalf("reassembler leaked state: %d msgs, %d bytes", re.PendingMessages(), re.PendingBytes())
		}
		// A duplicate of a mid-message fragment after completion starts
		// a fresh partial (the transport's seq dedup normally prevents
		// this); it must never complete a second message on its own.
		if len(frags) > 1 {
			if _, dupDone, _ := re.Feed(frags[0]); dupDone {
				t.Fatal("duplicate fragment completed a second message")
			}
		}
	})
}

// FuzzDecodeNeverPanics feeds arbitrary bytes to the message decoder;
// it may reject them but must never panic or over-read.
func FuzzDecodeNeverPanics(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add(encode(Message{Type: TLockReq, Payload: []byte("x")}))
	long := encode(Message{Type: TObjFetchReply, Payload: bytes.Repeat([]byte{1}, 1000)})
	f.Add(long[:len(long)-3]) // truncated payload
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err == nil && !m.Type.Valid() {
			t.Fatalf("Decode returned invalid type %v without error", m.Type)
		}
	})
}

// FuzzCtrlDecode feeds arbitrary bytes to the multi-process control
// frame decoder: it may reject them but must never panic, and whatever
// it accepts must re-encode to an equivalent frame (the launcher and
// the node daemons trust this codec across a process boundary).
func FuzzCtrlDecode(f *testing.F) {
	for _, c := range ctrlSamples() {
		f.Add(EncodeCtrl(c))
	}
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{2, 0, 0, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCtrl(data)
		if err != nil {
			return
		}
		got, err := DecodeCtrl(EncodeCtrl(c))
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("re-encode changed frame: %+v != %+v", got, c)
		}
	})
}

// FuzzReadCtrl feeds arbitrary byte streams to the framed control
// reader: it may reject them but must never panic, and any frame it
// accepts must survive a write/read round trip (a launcher and a node
// daemon trust this framing across a pipe).
func FuzzReadCtrl(f *testing.F) {
	for _, c := range ctrlSamples() {
		var b bytes.Buffer
		if err := WriteCtrl(&b, c); err != nil {
			f.Fatalf("WriteCtrl seed: %v", err)
		}
		f.Add(b.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte("LCTL"))
	f.Add([]byte{'L', 'C', 'T', 'L', 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadCtrl(bytes.NewReader(data))
		if err != nil {
			return
		}
		var b bytes.Buffer
		if err := WriteCtrl(&b, c); err != nil {
			t.Fatalf("re-write of accepted frame failed: %v", err)
		}
		got, err := ReadCtrl(&b)
		if err != nil {
			t.Fatalf("re-read of accepted frame failed: %v", err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("round trip changed frame: %+v != %+v", got, c)
		}
	})
}

// FuzzDecodeInPlace cross-checks the zero-copy decoder against the
// copying one: both must agree on acceptance, and an accepted message
// must be identical through either path (DecodeInPlace is the hot
// receive path; Decode is its specification).
func FuzzDecodeInPlace(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add(encode(Message{Type: TLockReq, From: 1, To: 2, ReqID: 9, Payload: []byte("x")}))
	long := encode(Message{Type: TObjFetchReply, Payload: bytes.Repeat([]byte{7}, 500)})
	f.Add(long)
	f.Add(long[:len(long)-3]) // truncated payload
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, refErr := Decode(data)
		buf := append([]byte(nil), data...)
		m, err := DecodeInPlace(buf)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoders disagree: DecodeInPlace err=%v, Decode err=%v", err, refErr)
		}
		if err != nil {
			return
		}
		if m.Type != ref.Type || m.From != ref.From || m.To != ref.To ||
			m.ReqID != ref.ReqID || m.SimTime != ref.SimTime || !bytes.Equal(m.Payload, ref.Payload) {
			t.Fatalf("decoders disagree on accepted input: %+v != %+v", m, ref)
		}
		if len(m.Payload) > 0 && &m.Payload[0] != &buf[headerLen] {
			t.Fatal("DecodeInPlace copied the payload instead of aliasing the buffer")
		}
	})
}

// FuzzTraceExtRoundTrip drives the trace-context frame extension with
// arbitrary contexts and payloads: a zero ctx must encode to exactly
// the unextended layout, a non-zero one must round-trip through
// encode/decode byte-faithfully, and truncating the extension must be
// rejected (the transports trust this framing under tracing).
func FuzzTraceExtRoundTrip(f *testing.F) {
	f.Add(uint8(TObjFetchReq), []byte("payload"), uint16(3), uint32(47), uint64(12345), uint8(0))
	f.Add(uint8(TLockFree), []byte{}, uint16(0), uint32(0), uint64(1), uint8(3))
	f.Add(uint8(TBarrierDiff), bytes.Repeat([]byte{7}, 300), uint16(0), uint32(0), uint64(0), uint8(14))
	f.Fuzz(func(t *testing.T, typ uint8, payload []byte, rank uint16, epoch uint32, seq uint64, cut uint8) {
		mt := Type(typ)
		if !mt.Valid() {
			return
		}
		if len(payload) > 1<<16 {
			payload = payload[:1<<16]
		}
		m := Message{Type: mt, From: 1, To: 2, ReqID: 9, SimTime: 5,
			Payload: payload, Trace: TraceCtx{Rank: rank, Epoch: epoch, Seq: seq}}
		enc := encode(m)
		if len(enc) != EncodedLen(m) {
			t.Fatalf("encoded %d bytes, EncodedLen says %d", len(enc), EncodedLen(m))
		}
		if m.Trace.Zero() != (enc[0]&0x80 == 0) {
			t.Fatalf("trace flag %v disagrees with ctx %+v", enc[0]&0x80, m.Trace)
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode of Encode output: %v", err)
		}
		if got.Trace != m.Trace || !bytes.Equal(got.Payload, m.Payload) {
			t.Fatalf("round trip mismatch: %+v != %+v", got, m)
		}
		if !bytes.Equal(encode(got), enc) {
			t.Fatal("re-encode of decoded message changed bytes")
		}
		if n := int(cut); !m.Trace.Zero() && n > 0 && n <= traceExtLen {
			if _, err := Decode(enc[:len(enc)-n]); err == nil {
				t.Fatalf("Decode accepted frame with %d extension bytes missing", n)
			}
		}
	})
}

// FuzzReassemblerNeverPanics feeds arbitrary bytes as wire fragments;
// corrupt fragments may error but must never panic the reassembler or
// poison it against subsequent valid traffic.
func FuzzReassemblerNeverPanics(f *testing.F) {
	f.Add([]byte{}, []byte{1, 2, 3})
	valid := fragments(encode(Message{Type: TLockFree}), 7)[0]
	f.Add(valid, valid)
	bad := append([]byte(nil), valid...)
	bad[10] = 0xFF // fragment count corruption
	f.Add(bad, valid)
	f.Fuzz(func(t *testing.T, fragA, fragB []byte) {
		re := NewReassembler()
		re.Feed(fragA) //nolint:errcheck // may reject; must not panic
		re.Feed(fragB) //nolint:errcheck
		// The reassembler must still work after arbitrary garbage.
		m := Message{Type: TLockGrant, To: 1, Payload: []byte("still alive")}
		for _, fr := range fragments(encode(m), 1<<40) {
			if got, done, err := re.Feed(fr); err != nil {
				t.Fatalf("poisoned reassembler: %v", err)
			} else if done && !bytes.Equal(got.Payload, m.Payload) {
				t.Fatal("poisoned reassembler corrupted a valid message")
			}
		}
	})
}
