package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestBufferReaderRoundTrip(t *testing.T) {
	var w Buffer
	w.U8(7).U16(300).U32(70000).U64(1 << 40).I64(-5).Bool(true).Bool(false)
	w.Bytes32([]byte("hello")).Raw([]byte{1, 2, 3})

	r := NewReader(w.Bytes())
	if v := r.U8(); v != 7 {
		t.Errorf("U8 = %d", v)
	}
	if v := r.U16(); v != 300 {
		t.Errorf("U16 = %d", v)
	}
	if v := r.U32(); v != 70000 {
		t.Errorf("U32 = %d", v)
	}
	if v := r.U64(); v != 1<<40 {
		t.Errorf("U64 = %d", v)
	}
	if v := r.I64(); v != -5 {
		t.Errorf("I64 = %d", v)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool sequence wrong")
	}
	if v := r.Bytes32(); !bytes.Equal(v, []byte("hello")) {
		t.Errorf("Bytes32 = %q", v)
	}
	if v := r.Raw(3); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("Raw = %v", v)
	}
	if r.Err() != nil {
		t.Errorf("Err = %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d", r.Remaining())
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{1, 2})
	_ = r.U32() // needs 4 bytes, fails
	if !errors.Is(r.Err(), ErrPayload) {
		t.Fatalf("Err = %v, want ErrPayload", r.Err())
	}
	// All subsequent reads return zero values, error unchanged.
	if v := r.U64(); v != 0 {
		t.Errorf("U64 after error = %d", v)
	}
	if v := r.Bytes32(); v != nil {
		t.Errorf("Bytes32 after error = %v", v)
	}
	if !errors.Is(r.Err(), ErrPayload) {
		t.Errorf("error overwritten: %v", r.Err())
	}
}

func TestReaderBytes32Truncated(t *testing.T) {
	var w Buffer
	w.U32(100) // claims 100 bytes, provides none
	r := NewReader(w.Bytes())
	if v := r.Bytes32(); v != nil {
		t.Errorf("Bytes32 = %v, want nil", v)
	}
	if r.Err() == nil {
		t.Error("expected error for truncated Bytes32")
	}
}

// TestReaderBytes32HugeLength: a length prefix of 2^31 or more is a
// negative int where int is 32 bits (386, arm, mipsle, wasm), and one
// just below it wraps offset+length. Either must fail the read, not
// slice out of range. CI runs this package under GOARCH=386 too.
func TestReaderBytes32HugeLength(t *testing.T) {
	for _, prefix := range [][]byte{
		{0xff, 0xff, 0xff, 0xff},
		{0x00, 0x00, 0x00, 0x80},
		{0xfd, 0xff, 0xff, 0x7f},
	} {
		for _, read := range []func(*Reader) []byte{(*Reader).Bytes32, (*Reader).Bytes32InPlace} {
			r := NewReader(append(append([]byte(nil), prefix...), 1, 2, 3))
			if v := read(r); v != nil || r.Err() == nil {
				t.Errorf("length prefix %x: read %v, err %v; want nil and an error", prefix, v, r.Err())
			}
		}
	}
}

func TestReaderNegativeRaw(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if v := r.Raw(-1); v != nil {
		t.Errorf("Raw(-1) = %v", v)
	}
	if r.Err() == nil {
		t.Error("Raw(-1) should set error")
	}
}

func TestBytes32CopiesData(t *testing.T) {
	src := []byte("mutate-me")
	var w Buffer
	w.Bytes32(src)
	r := NewReader(w.Bytes())
	got := r.Bytes32()
	got[0] = 'X'
	r2 := NewReader(w.Bytes())
	if got2 := r2.Bytes32(); got2[0] != 'm' {
		t.Error("Bytes32 result aliases the payload buffer")
	}
}

func TestBytes32InPlaceAliasesPayload(t *testing.T) {
	var w Buffer
	w.Bytes32([]byte("in-place")).U32(7)
	r := NewReader(w.Bytes())
	got := r.Bytes32InPlace()
	if string(got) != "in-place" || r.U32() != 7 || r.Err() != nil {
		t.Fatalf("Bytes32InPlace = %q, err %v", got, r.Err())
	}
	if &got[0] != &w.Bytes()[4] {
		t.Error("Bytes32InPlace copied the payload")
	}
	// An append to the view must not run into the fields behind it.
	_ = append(got, 0xFF)
	if v := NewReader(w.Bytes()[4+len(got):]).U32(); v != 7 {
		t.Errorf("append through the view overwrote the next field: %d", v)
	}
	w = Buffer{}
	w.U32(100) // claims 100 bytes, provides none
	r = NewReader(w.Bytes())
	if v := r.Bytes32InPlace(); v != nil || r.Err() == nil {
		t.Errorf("truncated Bytes32InPlace = %v, err %v", v, r.Err())
	}
}

func TestReaderCountBoundedByPayload(t *testing.T) {
	var w Buffer
	w.U32(2).U64(10).U64(11)
	r := NewReader(w.Bytes())
	if n := r.Count(8); n != 2 || r.Err() != nil {
		t.Fatalf("Count = %d, err %v; want 2", n, r.Err())
	}
	for _, claim := range []uint32{3, ^uint32(0)} {
		w = Buffer{}
		w.U32(claim).U64(10).U64(11)
		r = NewReader(w.Bytes())
		if n := r.Count(8); n != 0 || !errors.Is(r.Err(), ErrPayload) {
			t.Errorf("Count claiming %d elements in 16 bytes = %d, err %v", claim, n, r.Err())
		}
	}
	r = NewReader([]byte{1, 0}) // count itself truncated
	if n := r.Count(8); n != 0 || r.Err() == nil {
		t.Errorf("truncated Count = %d, err %v", n, r.Err())
	}
}

func TestBufferReaderPropertyU64(t *testing.T) {
	f := func(vals []uint64) bool {
		var w Buffer
		for _, v := range vals {
			w.U64(v)
		}
		r := NewReader(w.Bytes())
		for _, v := range vals {
			if r.U64() != v {
				return false
			}
		}
		return r.Err() == nil && r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
