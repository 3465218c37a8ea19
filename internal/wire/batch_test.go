package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

func sampleBatchMsgs() []Message {
	return []Message{
		{Type: TLockReq, From: 1, To: 2, ReqID: 7, SimTime: 100, Payload: []byte{1, 2, 3}},
		{Type: TBarrierDiff, From: 1, To: 2, ReqID: 8, SimTime: 200, Payload: bytes.Repeat([]byte{0xAB}, 300)},
		{Type: TBarrierDiffAck, From: 2, To: 1, ReqID: 8, SimTime: 300},
	}
}

func buildBatch(msgs []Message) []byte {
	var p []byte
	for _, m := range msgs {
		p = AppendBatchEntry(p, m)
	}
	return p
}

func TestBatchRoundTrip(t *testing.T) {
	msgs := sampleBatchMsgs()
	p := buildBatch(msgs)
	var got []Message
	if err := DecodeBatch(p, func(m Message) error {
		got = append(got, m)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(msgs) {
		t.Fatalf("decoded %d messages, want %d", len(got), len(msgs))
	}
	for i := range msgs {
		if got[i].Type != msgs[i].Type || got[i].From != msgs[i].From ||
			got[i].To != msgs[i].To || got[i].ReqID != msgs[i].ReqID ||
			got[i].SimTime != msgs[i].SimTime || !bytes.Equal(got[i].Payload, msgs[i].Payload) {
			t.Errorf("message %d: got %+v, want %+v", i, got[i], msgs[i])
		}
	}
}

// TestBatchPayloadIsIndependentCopy: a decoded sub-message survives the
// batch payload being poisoned afterwards (transports recycle the
// delivering buffer).
func TestBatchPayloadIsIndependentCopy(t *testing.T) {
	p := buildBatch(sampleBatchMsgs())
	var got []Message
	if err := DecodeBatch(p, func(m Message) error {
		got = append(got, m)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range p {
		p[i] = 0xDB
	}
	if !bytes.Equal(got[0].Payload, []byte{1, 2, 3}) {
		t.Fatal("sub-message payload aliases the batch buffer")
	}
}

// TestBatchDecodeRejectsMalformed is the bounded-decode table: every
// corruption mode the decoder guards against must fail cleanly, and
// must not invoke fn past the corruption point.
func TestBatchDecodeRejectsMalformed(t *testing.T) {
	good := buildBatch(sampleBatchMsgs())
	one := buildBatch(sampleBatchMsgs()[:1])
	cases := []struct {
		name string
		p    []byte
		want string // substring of the error
	}{
		{"empty", nil, "empty batch"},
		{"truncated-prefix", good[:2], "truncated batch entry prefix"},
		{"entry-shorter-than-header", func() []byte {
			p := append([]byte(nil), one...)
			binary.LittleEndian.PutUint32(p, uint32(headerLen-1))
			return p
		}(), "batch entry length"},
		{"entry-past-end", func() []byte {
			p := append([]byte(nil), one...)
			binary.LittleEndian.PutUint32(p, uint32(len(p))) // claims more than remains
			return p
		}(), "batch entry length"},
		{"truncated-entry-body", good[:len(good)-1], "batch entry length"},
		{"nested-batch", buildBatch([]Message{{Type: TBatch, To: 1, Payload: one}}), "nested batch"},
		{"slack-bytes", func() []byte {
			// Grow the entry's length prefix to cover a trailing byte the
			// sub-message's own header does not claim.
			m := Message{Type: TLockReq, To: 1}
			p := binary.LittleEndian.AppendUint32(nil, uint32(EncodedLen(m)+1))
			p = EncodeInto(p, m)
			return append(p, 0xEE)
		}(), "slack"},
		{"bad-entry-type", func() []byte {
			p := append([]byte(nil), one...)
			p[batchEntryHeaderLen] = 0xFF // corrupt the sub-message type
			return p
		}(), "type"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := DecodeBatch(tc.p, func(Message) error { return nil })
			if err == nil {
				t.Fatal("malformed batch accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestBatchDecodeEntryBound: more than MaxBatchEntries entries are
// rejected even when each is well-formed.
func TestBatchDecodeEntryBound(t *testing.T) {
	m := Message{Type: TLockReq, To: 1}
	var p []byte
	for i := 0; i < MaxBatchEntries+1; i++ {
		p = AppendBatchEntry(p, m)
	}
	err := DecodeBatch(p, func(Message) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "entries") {
		t.Fatalf("over-long batch: %v, want entry-bound rejection", err)
	}
}

// TestBatchDecodeStopsOnFnError: fn's error aborts the walk.
func TestBatchDecodeStopsOnFnError(t *testing.T) {
	p := buildBatch(sampleBatchMsgs())
	boom := errors.New("boom")
	calls := 0
	err := DecodeBatch(p, func(Message) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || calls != 2 {
		t.Fatalf("err=%v calls=%d, want boom after 2 calls", err, calls)
	}
}

// FuzzBatchDecode feeds arbitrary bytes to the batch decoder: it may
// reject them but must never panic or over-allocate, and whatever it
// accepts must rebuild into a payload that decodes to the same
// messages (the coalescing path trusts this framing across the
// transport). Style matches FuzzCtrlDecode/FuzzCkptDecode.
func FuzzBatchDecode(f *testing.F) {
	f.Add(buildBatch(sampleBatchMsgs()))
	f.Add(buildBatch(sampleBatchMsgs()[:1]))
	f.Add([]byte{})
	f.Add([]byte{4, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		var msgs []Message
		if err := DecodeBatch(data, func(m Message) error {
			msgs = append(msgs, m)
			return nil
		}); err != nil {
			return
		}
		if len(msgs) == 0 {
			t.Fatal("accepted batch produced zero messages")
		}
		re := buildBatch(msgs)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted batch is not canonical: %d bytes re-encode to %d", len(data), len(re))
		}
	})
}
