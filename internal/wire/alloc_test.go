package wire

// Steady-state allocation guards for the pooled wire path. Every guard
// warms the pool first, then requires testing.AllocsPerRun to observe
// an exact count per operation — zero on the send side, one per
// delivered message on the receive side: a regression that
// reintroduces a per-frame make (or sneaks a slice header into an
// interface) fails here before it ever shows up on a profile.

import (
	"testing"
)

func allocMsg(payloadLen int) Message {
	p := make([]byte, payloadLen)
	for i := range p {
		p[i] = byte(i)
	}
	return Message{Type: TBarrierDiff, From: 1, To: 2, ReqID: 42, SimTime: 7, Payload: p}
}

// assertAllocs runs f through AllocsPerRun after a warm-up and fails
// unless every steady-state run allocates exactly want times.
func assertAllocs(t *testing.T, name string, want float64, f func()) {
	t.Helper()
	for i := 0; i < 8; i++ { // warm the pool and any lazy internals
		f()
	}
	if avg := testing.AllocsPerRun(200, f); avg != want {
		t.Errorf("%s: %.1f allocs/op, want %.0f", name, avg, want)
	}
}

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	assertAllocs(t, name, 0, f)
}

func TestEncodeIntoZeroAlloc(t *testing.T) {
	m := allocMsg(512)
	dst := make([]byte, 0, EncodedLen(m))
	assertZeroAllocs(t, "EncodeInto", func() {
		dst = EncodeInto(dst[:0], m)
	})
}

func TestEncodePooledZeroAlloc(t *testing.T) {
	drainSlabs()
	defer drainSlabs()
	for _, n := range []int{64, 4 << 10} {
		m := allocMsg(n)
		assertZeroAllocs(t, "EncodePooled", func() {
			PutSlab(EncodePooled(m))
		})
	}
}

func TestDecodeInPlaceZeroAlloc(t *testing.T) {
	enc := encode(allocMsg(512))
	assertZeroAllocs(t, "DecodeInPlace", func() {
		if _, err := DecodeInPlace(enc); err != nil {
			panic(err)
		}
	})
}

// TestFragmentPathAllocs: the full steady-state path of one message —
// pooled encode, pooled fragment frames with transport headroom,
// reassembly, delivery — allocates exactly once, the delivered
// payload, which protocol handlers retain. That holds for a
// single-fragment message (copied out of the caller's frame) and
// across the >64 KiB multi-fragment path (joined into one buffer),
// where reassembly buffers and partial-tracking structs must all
// recycle; the encode/fragment side alone allocates nothing.
func TestFragmentPathAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload int
		frags   int
	}{
		{"small", 600, 1},
		{"large", 200 << 10, 4},
	} {
		drainSlabs()
		m := allocMsg(tc.payload)
		r := NewReassembler()
		var msgID uint64
		frames, delivered := 0, 0
		feed := func(f []byte) error {
			frames++
			_, done, err := r.Feed(f[16:]) // strip the transport headroom
			if err != nil {
				panic(err)
			}
			if done {
				delivered++
			}
			PutSlab(f)
			return nil
		}
		discard := func(f []byte) error {
			PutSlab(f)
			return nil
		}
		send := func(sink func([]byte) error) func() {
			return func() {
				enc := EncodePooled(m)
				msgID++
				if err := ForEachFragment(enc, msgID, 16, sink); err != nil {
					panic(err)
				}
				PutSlab(enc)
			}
		}
		// The transports' form: frames cut from the message itself.
		sendDirect := func(sink func([]byte) error) func() {
			return func() {
				msgID++
				if err := FragmentMessage(m, msgID, 16, sink); err != nil {
					panic(err)
				}
			}
		}
		assertZeroAllocs(t, "encode+fragment ("+tc.name+")", send(discard))
		assertAllocs(t, "fragment path ("+tc.name+")", 1, send(feed))
		assertZeroAllocs(t, "fragment from message ("+tc.name+")", sendDirect(discard))
		assertAllocs(t, "fragment path from message ("+tc.name+")", 1, sendDirect(feed))
		if delivered == 0 || frames != delivered*tc.frags {
			t.Errorf("%s: %d frames delivered %d messages, want %d frames each", tc.name, frames, delivered, tc.frags)
		}
	}
	drainSlabs()
}

// TestBatchAppendZeroAlloc: building a batch payload in a pooled slab
// and decoding it in place allocates only the decoder's per-entry
// payload copies (measured separately); the append side must be free.
func TestBatchAppendZeroAlloc(t *testing.T) {
	drainSlabs()
	defer drainSlabs()
	msgs := []Message{allocMsg(100), allocMsg(200), allocMsg(300)}
	size := 0
	for _, m := range msgs {
		size += BatchOverhead + EncodedLen(m)
	}
	assertZeroAllocs(t, "AppendBatchEntry", func() {
		p := GetSlab(size)
		for _, m := range msgs {
			p = AppendBatchEntry(p, m)
		}
		PutSlab(p)
	})
}
