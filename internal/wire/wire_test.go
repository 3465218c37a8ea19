package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// encode returns m encoded into a fresh buffer.
func encode(m Message) []byte { return EncodeInto(nil, m) }

// fragments collects the frames ForEachFragment produces for enc.
func fragments(enc []byte, msgID uint64) [][]byte {
	var frags [][]byte
	_ = ForEachFragment(enc, msgID, 0, func(f []byte) error {
		frags = append(frags, f)
		return nil
	})
	return frags
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := Message{
		Type:    TLockGrant,
		From:    3,
		To:      7,
		ReqID:   0xdeadbeef,
		SimTime: 1234567890,
		Payload: []byte("scope updates"),
	}
	got, err := Decode(encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != m.Type || got.From != m.From || got.To != m.To ||
		got.ReqID != m.ReqID || got.SimTime != m.SimTime ||
		!bytes.Equal(got.Payload, m.Payload) {
		t.Errorf("round trip mismatch: %+v vs %+v", got, m)
	}
}

func TestEncodeDecodeEmptyPayload(t *testing.T) {
	m := Message{Type: TBarrierArrive, From: 1, To: 0}
	got, err := Decode(encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Payload) != 0 {
		t.Errorf("payload = %v, want empty", got.Payload)
	}
}

func TestDecodeTruncated(t *testing.T) {
	m := Message{Type: TObjFetchReq, Payload: []byte("xyz")}
	enc := encode(m)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Errorf("Decode of %d/%d bytes should fail", cut, len(enc))
		}
	}
}

func TestDecodeBadType(t *testing.T) {
	enc := encode(Message{Type: TLockFree})
	enc[0] = 0 // TInvalid
	if _, err := Decode(enc); !errors.Is(err, ErrBadType) {
		t.Errorf("err = %v, want ErrBadType", err)
	}
	enc[0] = byte(tMax)
	if _, err := Decode(enc); !errors.Is(err, ErrBadType) {
		t.Errorf("err = %v, want ErrBadType for out-of-range type", err)
	}
}

func TestDecodeRejectsShortPayload(t *testing.T) {
	enc := encode(Message{Type: TLockFree, Payload: []byte("abcdef")})
	if _, err := Decode(enc[:len(enc)-2]); !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestTypeStrings(t *testing.T) {
	for ty := TInvalid + 1; ty < tMax; ty++ {
		if ty > TJDiffAck && ty < TBatch { // retired values: no name, and no frame carries them
			if ty.Valid() || ty.String() != fmt.Sprintf("type(%d)", ty) {
				t.Errorf("retired type %d: Valid %v, String %q", ty, ty.Valid(), ty.String())
			}
			continue
		}
		if s := ty.String(); s == "" || s == "invalid" {
			t.Errorf("type %d has no name", ty)
		}
		if !ty.Valid() {
			t.Errorf("type %d should be valid", ty)
		}
	}
	if Type(200).Valid() {
		t.Error("type 200 should be invalid")
	}
	if Type(200).String() != "type(200)" {
		t.Errorf("unknown type String = %q", Type(200).String())
	}
}

func TestFragmentSmallMessageIsSingleFragment(t *testing.T) {
	enc := encode(Message{Type: TLockFree, Payload: []byte("hi")})
	frags := fragments(enc, 42)
	if len(frags) != 1 {
		t.Fatalf("got %d fragments, want 1", len(frags))
	}
	r := NewReassembler()
	m, done, err := r.Feed(frags[0])
	if err != nil || !done {
		t.Fatalf("Feed: done=%v err=%v", done, err)
	}
	if m.Type != TLockFree || string(m.Payload) != "hi" {
		t.Errorf("reassembled = %+v", m)
	}
}

func TestFragmentLargeMessageRespects64KLimit(t *testing.T) {
	// A 300 KB object copy must be split (paper §5: max message 64 KB).
	payload := make([]byte, 300<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	enc := encode(Message{Type: TObjFetchReply, From: 1, To: 2, Payload: payload})
	frags := fragments(enc, 99)
	if len(frags) < 5 {
		t.Fatalf("got %d fragments, want >= 5", len(frags))
	}
	for i, f := range frags {
		if len(f) > MaxDatagram {
			t.Errorf("fragment %d is %d bytes > MaxDatagram", i, len(f))
		}
	}
	r := NewReassembler()
	var got Message
	done := false
	for _, f := range frags {
		var err error
		got, done, err = r.Feed(f)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !done {
		t.Fatal("message not reassembled after all fragments")
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Error("reassembled payload differs")
	}
	if r.PendingMessages() != 0 || r.PendingBytes() != 0 {
		t.Errorf("reassembler not drained: %d msgs, %d bytes",
			r.PendingMessages(), r.PendingBytes())
	}
}

// TestReassemblerOutOfOrderAndDuplicates: fragments are accepted in
// order only. In order with every fragment duplicated, the message
// reassembles; a fragment ahead of the next expected one is rejected
// and drops the message, so nothing stays pending.
func TestReassemblerOutOfOrderAndDuplicates(t *testing.T) {
	payload := make([]byte, 200<<10)
	rand.New(rand.NewSource(1)).Read(payload)
	enc := encode(Message{Type: TJPageReply, Payload: payload})
	frags := fragments(enc, 7)
	r := NewReassembler()
	delivered := 0
	for i, f := range frags {
		// Every fragment but the last arrives twice: a repeat of a joined
		// fragment is harmless, and after completion it would start a
		// new message.
		copies := 2
		if i == len(frags)-1 {
			copies = 1
		}
		for rep := 0; rep < copies; rep++ {
			m, done, err := r.Feed(f)
			if err != nil {
				t.Fatalf("fragment %d, copy %d: %v", i, rep, err)
			}
			if done {
				delivered++
				if !bytes.Equal(m.Payload, payload) {
					t.Error("payload mismatch after reassembly with duplicates")
				}
			}
		}
	}
	if delivered != 1 {
		t.Fatalf("delivered %d times, want once", delivered)
	}

	// Reverse order: every fragment but the first is ahead of order.
	r = NewReassembler()
	for i := len(frags) - 1; i > 0; i-- {
		if _, done, err := r.Feed(frags[i]); err == nil || done {
			t.Errorf("fragment %d of %d fed first: done=%v err=%v, want an error", i, len(frags), done, err)
		}
		if r.PendingMessages() != 0 || r.PendingBytes() != 0 {
			t.Errorf("after fragment %d: %d messages, %d bytes pending", i, r.PendingMessages(), r.PendingBytes())
		}
	}

	// A gap after a joined prefix drops what was joined.
	r = NewReassembler()
	for _, i := range []int{0, 1} {
		if _, done, err := r.Feed(frags[i]); done || err != nil {
			t.Fatalf("fragment %d: done=%v err=%v", i, done, err)
		}
	}
	if _, done, err := r.Feed(frags[3]); err == nil || done {
		t.Errorf("fragment 3 after 0, 1: done=%v err=%v, want an error", done, err)
	}
	if r.PendingMessages() != 0 || r.PendingBytes() != 0 {
		t.Errorf("after a gap: %d messages, %d bytes pending", r.PendingMessages(), r.PendingBytes())
	}
}

func TestReassemblerInterleavedMessages(t *testing.T) {
	pa := bytes.Repeat([]byte("a"), 100<<10)
	pb := bytes.Repeat([]byte("b"), 100<<10)
	fa := fragments(encode(Message{Type: TJDiff, Payload: pa}), 1)
	fb := fragments(encode(Message{Type: TJDiff, Payload: pb}), 2)
	r := NewReassembler()
	var msgs []Message
	for i := 0; i < len(fa) || i < len(fb); i++ {
		for _, f := range [][]byte{pick(fa, i), pick(fb, i)} {
			if f == nil {
				continue
			}
			m, done, err := r.Feed(f)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				msgs = append(msgs, m)
			}
		}
	}
	if len(msgs) != 2 {
		t.Fatalf("reassembled %d messages, want 2", len(msgs))
	}
	if !bytes.Equal(msgs[0].Payload, pa) && !bytes.Equal(msgs[1].Payload, pa) {
		t.Error("message A payload lost")
	}
}

func pick(f [][]byte, i int) []byte {
	if i < len(f) {
		return f[i]
	}
	return nil
}

func TestReassemblerPendingAccounting(t *testing.T) {
	payload := make([]byte, 150<<10)
	frags := fragments(encode(Message{Type: TJPageReply, Payload: payload}), 11)
	r := NewReassembler()
	if _, done, err := r.Feed(frags[0]); done || err != nil {
		t.Fatalf("first frag: done=%v err=%v", done, err)
	}
	if r.PendingMessages() != 1 {
		t.Errorf("PendingMessages = %d", r.PendingMessages())
	}
	if r.PendingBytes() == 0 {
		t.Error("PendingBytes should be > 0 with a partial message")
	}
	// A duplicate is counted once however often it arrives.
	for rep := 0; rep < 3; rep++ {
		if _, done, err := r.Feed(frags[0]); done || err != nil {
			t.Fatalf("duplicate first frag: done=%v err=%v", done, err)
		}
	}
	if want := len(frags[0]) - fragHeaderLen; r.PendingBytes() != want {
		t.Errorf("PendingBytes = %d after duplicates, want %d", r.PendingBytes(), want)
	}
	// A fragment ahead of order releases what the message held.
	if _, done, err := r.Feed(frags[2]); done || err == nil {
		t.Fatalf("last frag ahead of order: done=%v err=%v, want an error", done, err)
	}
	if r.PendingMessages() != 0 || r.PendingBytes() != 0 {
		t.Errorf("after a fragment ahead of order: %d messages, %d bytes pending", r.PendingMessages(), r.PendingBytes())
	}
}

func TestReassemblerRejectsMalformed(t *testing.T) {
	r := NewReassembler()
	if _, _, err := r.Feed([]byte{1, 2, 3}); err == nil {
		t.Error("short fragment should fail")
	}
	// Bad index/count.
	frags := fragments(encode(Message{Type: TLockFree}), 5)
	bad := append([]byte(nil), frags[0]...)
	bad[10], bad[11] = 0, 0 // count=0
	if _, _, err := r.Feed(bad); err == nil {
		t.Error("zero fragment count should fail")
	}
}

func TestFragmentRoundTripProperty(t *testing.T) {
	f := func(seed int64, sz uint32) bool {
		n := int(sz % 500000)
		payload := make([]byte, n)
		rand.New(rand.NewSource(seed)).Read(payload)
		enc := encode(Message{Type: TObjFetchReply, ReqID: uint64(seed), Payload: payload})
		r := NewReassembler()
		var got Message
		done := false
		for _, frag := range fragments(enc, uint64(seed)) {
			var err error
			got, done, err = r.Feed(frag)
			if err != nil {
				return false
			}
		}
		return done && bytes.Equal(got.Payload, payload) && got.ReqID == uint64(seed)
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestEncodedLenMatchesEncode(t *testing.T) {
	for _, p := range [][]byte{nil, {}, []byte("x"), make([]byte, 70<<10)} {
		m := Message{Type: TJDiff, From: 1, To: 2, Payload: p}
		if got, want := EncodedLen(m), len(encode(m)); got != want {
			t.Errorf("EncodedLen = %d, len(EncodeInto) = %d for %d-byte payload", got, want, len(p))
		}
	}
	// The wire size of the two payloads every byte-count record uses.
	if a, b := EncodedLen(Message{Payload: make([]byte, 256)}), EncodedLen(Message{Payload: make([]byte, 256<<10)}); a != 281 || b != 262169 {
		t.Errorf("EncodedLen(256 B, 256 KiB) = %d, %d; want 281, 262169", a, b)
	}
}
