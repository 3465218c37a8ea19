package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
)

// messageFragments collects the frames FragmentMessage cuts from m.
func messageFragments(m Message, msgID uint64, headroom int) [][]byte {
	var frags [][]byte
	_ = FragmentMessage(m, msgID, headroom, func(f []byte) error {
		frags = append(frags, f)
		return nil
	})
	return frags
}

// TestFragmentMessageEqualsEncodedFragments: the frames cut straight
// from a message are, byte for byte past the headroom, the frames cut
// from its encoding — for payload lengths that put the header/payload
// and payload/trace-extension seams on, just before and just after every
// fragment boundary, traced and untraced.
func TestFragmentMessageEqualsEncodedFragments(t *testing.T) {
	var lengths []int
	for k := 0; k <= 3; k++ {
		for _, overhead := range []int{headerLen, headerLen + traceExtLen} {
			for d := -traceExtLen - 2; d <= 2; d++ {
				if n := k*MaxFragPayload - overhead + d; n >= 0 {
					lengths = append(lengths, n)
				}
			}
		}
	}
	lengths = append(lengths, 0, 1, 600, MaxFragPayload, 200<<10)
	rng := rand.New(rand.NewSource(5))
	for _, n := range lengths {
		payload := make([]byte, n)
		rng.Read(payload)
		for _, tc := range []TraceCtx{{}, {Rank: 3, Epoch: 9, Seq: 77}} {
			m := Message{Type: TObjFetchReply, From: 1, To: 2, ReqID: 99, SimTime: 5, Payload: payload, Trace: tc}
			const headroom = 11
			got := messageFragments(m, 42, headroom)
			want := fragments(encode(m), 42)
			if len(got) != len(want) {
				t.Fatalf("payload %d traced %v: %d frames, want %d", n, !tc.Zero(), len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i][headroom:], want[i]) {
					t.Fatalf("payload %d traced %v: frame %d differs from the encoded message's", n, !tc.Zero(), i)
				}
			}
		}
	}
}

// rawFragment builds a fragment frame by hand, so a test can state
// things no sender would.
func rawFragment(msgID uint64, idx, count int, chunk []byte) []byte {
	f := make([]byte, fragHeaderLen, fragHeaderLen+len(chunk))
	binary.LittleEndian.PutUint64(f[0:], msgID)
	binary.LittleEndian.PutUint16(f[8:], uint16(idx))
	binary.LittleEndian.PutUint16(f[10:], uint16(count))
	binary.LittleEndian.PutUint32(f[12:], uint32(len(chunk)))
	return append(f, chunk...)
}

// headerStating is a message header that states a payload of n bytes.
func headerStating(n uint32) []byte {
	h := appendHeader(nil, Message{Type: TObjFetchReply})
	binary.LittleEndian.PutUint32(h[headerLen-4:], n)
	return h
}

// TestReassemblerClampsStatedLength: the join slab is sized from the
// first fragment's message header, which is a peer's word. A tiny first
// fragment stating a 4 GiB payload commits at most the largest slab
// class, and no more than the class of what its fragment count could
// carry.
func TestReassemblerClampsStatedLength(t *testing.T) {
	for _, tc := range []struct {
		count, maxCap int
	}{
		{65535, maxJoinTrust},
		{2, slabClassCap(2*MaxFragPayload - headerLen)},
	} {
		r := NewReassembler()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, done, err := r.Feed(rawFragment(1, 0, tc.count, headerStating(0xFFFFFFFF))); done || err != nil {
			t.Fatalf("count %d: done=%v err=%v", tc.count, done, err)
		}
		runtime.ReadMemStats(&after)
		p := r.pending[1]
		if cap(p.body) > tc.maxCap {
			t.Errorf("count %d: join slab of %d bytes, want at most %d", tc.count, cap(p.body), tc.maxCap)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > maxJoinTrust+64<<10 {
			t.Errorf("count %d: a %d-byte fragment committed %d bytes", tc.count, headerLen, grew)
		}
		if r.PendingBytes() != headerLen {
			t.Errorf("count %d: PendingBytes = %d, want the %d received", tc.count, r.PendingBytes(), headerLen)
		}
	}
	// Ahead of order, nothing is held: the fragment is rejected.
	r := NewReassembler()
	if _, done, err := r.Feed(rawFragment(2, 65534, 65535, []byte("tail"))); done || err == nil {
		t.Fatalf("ahead of order: done=%v err=%v, want an error", done, err)
	}
	if r.PendingMessages() != 0 || r.PendingBytes() != 0 {
		t.Errorf("ahead of order: %d messages, %d bytes pending", r.PendingMessages(), r.PendingBytes())
	}
}

// TestReassemblerHeaderDisagreesWithBytes: when the fragments carry
// fewer or more bytes than the message header states, the message is a
// decode error — never delivered with a short or over-long payload —
// and the reassembler is clean afterwards.
func TestReassemblerHeaderDisagreesWithBytes(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 100<<10)
	enc := encode(Message{Type: TObjFetchReply, Payload: payload})
	for name, mangle := range map[string]func([]byte) []byte{
		"states more than arrives": func(e []byte) []byte {
			binary.LittleEndian.PutUint32(e[headerLen-4:], uint32(len(payload)+1))
			return e
		},
		"states less than arrives": func(e []byte) []byte {
			binary.LittleEndian.PutUint32(e[headerLen-4:], uint32(len(payload)-1))
			return e
		},
		"trailing bytes": func(e []byte) []byte { return append(e, 1, 2, 3) },
	} {
		r := NewReassembler()
		frags := fragments(mangle(append([]byte(nil), enc...)), 3)
		for i, f := range frags {
			m, done, err := r.Feed(f)
			if last := i == len(frags)-1; done || (err != nil) != last {
				t.Fatalf("%s: fragment %d/%d: done=%v err=%v payload=%d", name, i, len(frags), done, err, len(m.Payload))
			}
		}
		if r.PendingMessages() != 0 || r.PendingBytes() != 0 {
			t.Errorf("%s: %d messages, %d bytes left pending", name, r.PendingMessages(), r.PendingBytes())
		}
	}
}

// TestReassemblerDuplicatesUnderPoison reassembles messages — one
// longer than the header is trusted for, so its buffer grows — from
// fragments in order with duplicates of joined ones, each frame
// released as soon as Feed returns and poisoned by the pool. Whatever
// the reassembler still needs it must have copied; the delivered
// payload must alias nothing pooled.
func TestReassemblerDuplicatesUnderPoison(t *testing.T) {
	SetSlabPoison(true)
	defer SetSlabPoison(false)
	defer drainSlabs()
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{MaxFragPayload, 200 << 10, 3 << 20} {
		payload := make([]byte, n)
		rng.Read(payload)
		m := Message{Type: TObjFetchReply, ReqID: uint64(n), Payload: payload, Trace: TraceCtx{Rank: 1, Epoch: 2, Seq: 3}}
		for trial := 0; trial < 4; trial++ {
			frames := messageFragments(m, uint64(trial), 0)
			var order []int
			for i := range frames {
				order = append(order, i)
				if trial > 0 && i < len(frames)-1 {
					order = append(order, rng.Intn(i+1)) // a duplicate of a joined fragment
				}
			}
			r := NewReassembler()
			var got Message
			delivered := 0
			for _, i := range order {
				f := append(GetSlab(len(frames[i])), frames[i]...)
				msg, done, err := r.Feed(f)
				PutSlab(f) // poisons f
				if err != nil {
					t.Fatalf("%d bytes, trial %d: fragment %d: %v", n, trial, i, err)
				}
				if done {
					got = msg
					delivered++
				}
			}
			for _, f := range frames {
				PutSlab(f)
			}
			if delivered != 1 {
				t.Fatalf("%d bytes, trial %d: delivered %d times", n, trial, delivered)
			}
			if !bytes.Equal(got.Payload, payload) || got.Trace != m.Trace || got.ReqID != m.ReqID {
				t.Fatalf("%d bytes, trial %d: message corrupted in reassembly", n, trial)
			}
		}
	}
}
