package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
	"unsafe"
)

// TestMessageSize: the pooled flag sits in the header's padding, so a
// Message is as large as one without it — 64 bytes on a 64-bit host.
// Every Mux reply channel buffers one.
func TestMessageSize(t *testing.T) {
	type unflagged struct {
		Type     Type
		From, To uint16
		ReqID    uint64
		SimTime  int64
		Payload  []byte
		Trace    TraceCtx
	}
	if got, want := unsafe.Sizeof(Message{}), unsafe.Sizeof(unflagged{}); got != want {
		t.Errorf("Message is %d bytes, %d without its pooled flag", got, want)
	}
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(Message{}) != 64 {
		t.Errorf("Message is %d bytes, want 64", unsafe.Sizeof(Message{}))
	}
}

// pooledSlabs counts the free slabs in every class.
func pooledSlabs() int {
	n := 0
	for ci := range slabClasses {
		c := &slabClasses[ci]
		c.mu.Lock()
		n += len(c.free)
		c.mu.Unlock()
	}
	return n
}

// reassemble feeds frags in order and returns the delivered message.
func reassemble(t *testing.T, frags [][]byte) Message {
	t.Helper()
	r := NewReassembler()
	for i, f := range frags {
		m, done, err := r.Feed(f)
		if err != nil || done != (i == len(frags)-1) {
			t.Fatalf("fragment %d/%d: done=%v err=%v", i, len(frags), done, err)
		}
		if done {
			return m
		}
	}
	return Message{}
}

// TestReleaseReturnsJoinedSlab: a message joined from several fragments
// hands its slab back on Release, once, and so does a single-fragment
// message, whose payload was copied out of its frame into a slab; a
// message that never crossed a reassembler is left alone.
func TestReleaseReturnsJoinedSlab(t *testing.T) {
	emptyFrags := fragments(encode(Message{Type: TBarrierDiffAck}), 3) // cut before the pool is counted
	drainSlabs()
	defer drainSlabs()
	payload := bytes.Repeat([]byte{3}, 100<<10)
	m := reassemble(t, fragments(encode(Message{Type: TObjFetchReply, Payload: payload}), 1))
	if !bytes.Equal(m.Payload, payload) {
		t.Fatal("payload corrupted")
	}
	m.Release()
	if m.Payload != nil || pooledSlabs() != 1 {
		t.Fatalf("after Release: payload %d bytes, %d slabs pooled, want nil and 1", len(m.Payload), pooledSlabs())
	}
	m.Release()
	if pooledSlabs() != 1 {
		t.Errorf("a second Release pooled %d slabs, want the one", pooledSlabs())
	}

	small := reassemble(t, fragments(encode(Message{Type: TLockGrant, Payload: []byte("grant")}), 2))
	if string(small.Payload) != "grant" || cap(small.Payload) != slabSizes[0] {
		t.Fatalf("single-fragment payload %q in %d bytes, want \"grant\" in a %d-byte slab", small.Payload, cap(small.Payload), slabSizes[0])
	}
	small.Release()
	if small.Payload != nil || pooledSlabs() != 2 {
		t.Errorf("Release of a single-fragment message: payload %q, %d slabs pooled, want nil and 2", small.Payload, pooledSlabs())
	}
	small.Release()
	if pooledSlabs() != 2 {
		t.Errorf("a second Release of a single-fragment message pooled %d slabs, want 2", pooledSlabs())
	}
	empty := reassemble(t, emptyFrags)
	empty.Release()
	if pooledSlabs() != 2 {
		t.Errorf("an empty payload took a slab: %d pooled after its Release, want 2", pooledSlabs())
	}
	var built Message
	built.Payload = payload
	built.Release()
	if len(built.Payload) != len(payload) || pooledSlabs() != 2 {
		t.Error("Release of a message that never crossed a reassembler changed it")
	}
}

// TestFetchReplyFitsItsClass: a 256 KiB object's fetch reply — length
// prefix, object, version; traced or not — is joined in the 256 KiB
// class, whose allowance holds its framing, not in the 1 MiB class.
func TestFetchReplyFitsItsClass(t *testing.T) {
	drainSlabs()
	defer drainSlabs()
	payload := make([]byte, 4+256<<10+4)
	for _, tc := range []TraceCtx{{}, {Rank: 1, Epoch: 2, Seq: 3}} {
		m := reassemble(t, fragments(encode(Message{Type: TObjFetchReply, Payload: payload, Trace: tc}), 9))
		if got, want := cap(m.Payload), 256<<10+largeSlabAllowance; got != want {
			t.Errorf("traced %v: reply joined in a %d-byte slab, want %d", !tc.Zero(), got, want)
		}
		m.Release()
	}
}

// withCount is f with its fragment count rewritten.
func withCount(f []byte, count uint16) []byte {
	g := append([]byte(nil), f...)
	binary.LittleEndian.PutUint16(g[10:], count)
	return g
}

// TestReassemblerErrorsReturnSlab: every way a multi-fragment message
// can fail leaves nothing pending and its slab back in the pool, and a
// single-fragment message whose header does not decode takes no slab.
func TestReassemblerErrorsReturnSlab(t *testing.T) {
	payload := bytes.Repeat([]byte{9}, 200<<10)
	enc := encode(Message{Type: TObjFetchReply, Payload: payload})
	frags := fragments(enc, 4)
	short := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(short[headerLen-4:], uint32(len(payload)-1))
	one := encode(Message{Type: TLockReq, Payload: []byte("request")})
	badType := append([]byte{byte(tMax)}, one[1:]...)
	overstated := append([]byte(nil), one...)
	binary.LittleEndian.PutUint32(overstated[headerLen-4:], uint32(len(one)))
	for _, tc := range []struct {
		name  string
		feed  [][]byte
		slabs int // what the failed message held, now pooled
	}{
		{"ahead of order", [][]byte{frags[0], frags[2]}, 1},
		{"count mismatch", [][]byte{frags[0], withCount(frags[1], uint16(len(frags)+1))}, 1},
		{"bytes disagree with the header", fragments(short, 4), 1},
		{"fragment 0 shorter than a header", [][]byte{rawFragment(4, 0, 2, frags[0][fragHeaderLen:][:headerLen-1])}, 0},
		{"single fragment shorter than a header", [][]byte{rawFragment(5, 0, 1, one[:headerLen-1])}, 0},
		{"single fragment of an unknown type", [][]byte{rawFragment(6, 0, 1, badType)}, 0},
		{"single fragment short of its stated payload", [][]byte{rawFragment(7, 0, 1, overstated)}, 0},
	} {
		drainSlabs()
		r := NewReassembler()
		var err error
		for _, f := range tc.feed {
			_, _, err = r.Feed(f)
		}
		if err == nil {
			t.Errorf("%s: no error", tc.name)
		}
		if r.PendingMessages() != 0 || r.PendingBytes() != 0 {
			t.Errorf("%s: %d messages, %d bytes left pending", tc.name, r.PendingMessages(), r.PendingBytes())
		}
		if got := pooledSlabs(); got != tc.slabs {
			t.Errorf("%s: %d slabs back in the pool, want %d", tc.name, got, tc.slabs)
		}
	}
	drainSlabs()
}
