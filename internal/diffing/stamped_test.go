package diffing

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/object"
	"repro/internal/wire"
)

func TestComputeStampedSplitsAtStampBoundaries(t *testing.T) {
	twin := make([]byte, 32)
	cur := MakeTwin(twin)
	for i := 0; i < 16; i++ { // words 0..3 changed
		cur[i] = 1
	}
	stamps := make([]object.WordStamp, 8)
	stamps[0] = object.WordStamp{Ver: 5, Lock: 1, Epoch: 3}
	stamps[1] = object.WordStamp{Ver: 5, Lock: 1, Epoch: 3}
	stamps[2] = object.WordStamp{Ver: 7, Lock: 1, Epoch: 3} // boundary
	stamps[3] = object.WordStamp{Ver: 7, Lock: 1, Epoch: 3}
	d := ComputeStamped(cur, twin, stamps, 3)
	if len(d.Runs) != 2 {
		t.Fatalf("runs = %d, want split at stamp boundary: %+v", len(d.Runs), d.Runs)
	}
	if d.Runs[0].Ver != 5 || d.Runs[1].Ver != 7 {
		t.Errorf("run versions = %d, %d", d.Runs[0].Ver, d.Runs[1].Ver)
	}
}

func TestComputeStampedTreatsOtherEpochAsBlank(t *testing.T) {
	twin := make([]byte, 8)
	cur := MakeTwin(twin)
	cur[0] = 1
	stamps := []object.WordStamp{{Ver: 9, Lock: 2, Epoch: 1}, {}}
	d := ComputeStamped(cur, twin, stamps, 2) // different epoch
	if len(d.Runs) != 1 || d.Runs[0].Ver != 0 {
		t.Errorf("stale-epoch stamp should be blank: %+v", d.Runs)
	}
}

func TestApplyStampedNewestWins(t *testing.T) {
	// Two writers' diffs for the same word arrive in the WRONG order;
	// the newer version must survive regardless.
	dst := make([]byte, 8)
	stamps := make([]object.WordStamp, 2)
	newer := StampedDiff{Runs: []StampedRun{{Off: 0, Data: []byte{2, 0, 0, 0}, Ver: 6, Lock: 1}}}
	older := StampedDiff{Runs: []StampedRun{{Off: 0, Data: []byte{1, 0, 0, 0}, Ver: 5, Lock: 1}}}
	if _, err := ApplyStamped(dst, stamps, newer, 0); err != nil {
		t.Fatal(err)
	}
	n, err := ApplyStamped(dst, stamps, older, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("stale diff applied %d words", n)
	}
	if dst[0] != 2 {
		t.Errorf("dst[0] = %d, stale value clobbered the newer one", dst[0])
	}
	// Reversed arrival order yields the same final state.
	dst2 := make([]byte, 8)
	stamps2 := make([]object.WordStamp, 2)
	ApplyStamped(dst2, stamps2, older, 0)
	ApplyStamped(dst2, stamps2, newer, 0)
	if dst2[0] != 2 {
		t.Errorf("order-dependence: dst2[0] = %d", dst2[0])
	}
}

func TestApplyStampedUnstampedRules(t *testing.T) {
	dst := make([]byte, 4)
	stamps := make([]object.WordStamp, 1)
	un := StampedDiff{Runs: []StampedRun{{Off: 0, Data: []byte{7, 0, 0, 0}, Ver: 0}}}
	if n, _ := ApplyStamped(dst, stamps, un, 0); n != 1 {
		t.Error("unstamped diff onto unstamped word should apply")
	}
	// A stamped write beats any later unstamped (racy) write.
	st := StampedDiff{Runs: []StampedRun{{Off: 0, Data: []byte{9, 0, 0, 0}, Ver: 3, Lock: 1}}}
	ApplyStamped(dst, stamps, st, 0)
	if n, _ := ApplyStamped(dst, stamps, un, 0); n != 0 {
		t.Error("unstamped diff should not clobber a stamped word")
	}
	if dst[0] != 9 {
		t.Errorf("dst[0] = %d", dst[0])
	}
}

func TestApplyStampedEpochIsolation(t *testing.T) {
	// A local stamp from an old epoch must not mask a new-epoch diff,
	// even with a higher version number (versions are per-lock and only
	// comparable within one epoch).
	dst := make([]byte, 4)
	stamps := []object.WordStamp{{Ver: 50, Lock: 1, Epoch: 1}}
	d := StampedDiff{Runs: []StampedRun{{Off: 0, Data: []byte{4, 0, 0, 0}, Ver: 2, Lock: 3}}}
	n, err := ApplyStamped(dst, stamps, d, 2) // epoch 2
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || dst[0] != 4 {
		t.Errorf("old-epoch stamp masked a new-epoch write: n=%d dst=%d", n, dst[0])
	}
	if stamps[0].Epoch != 2 || stamps[0].Ver != 2 {
		t.Errorf("stamp not updated: %+v", stamps[0])
	}
}

func TestApplyStampedOutOfRange(t *testing.T) {
	d := StampedDiff{Runs: []StampedRun{{Off: 8, Data: []byte{1, 2, 3, 4}}}}
	if _, err := ApplyStamped(make([]byte, 8), nil, d, 0); err == nil {
		t.Error("out-of-range stamped apply should fail")
	}
}

func TestStampedDiffEncodeDecode(t *testing.T) {
	d := StampedDiff{Runs: []StampedRun{
		{Off: 0, Data: []byte{1, 2, 3, 4}, Ver: 5, Lock: 2},
		{Off: 12, Data: []byte{9, 9, 9, 9}, Ver: 0, Lock: 0},
	}}
	var w wire.Buffer
	d.Encode(&w)
	got, err := DecodeStampedDiff(wire.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 2 || got.Runs[0].Ver != 5 || got.Runs[0].Lock != 2 ||
		!bytes.Equal(got.Runs[1].Data, []byte{9, 9, 9, 9}) {
		t.Errorf("decoded = %+v", got)
	}
	if got.Bytes() != 8 || got.Empty() {
		t.Errorf("Bytes = %d Empty = %v", got.Bytes(), got.Empty())
	}
	// Truncated decode fails.
	b := w.Bytes()
	if _, err := DecodeStampedDiff(wire.NewReader(b[:len(b)-3])); err == nil {
		t.Error("truncated stamped decode should fail")
	}
}

// TestStampedMergeCommutes is the property that makes multi-writer
// barrier reconciliation correct: applying any permutation of a set of
// disjoint-version stamped diffs yields the same bytes.
func TestStampedMergeCommutes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 64
		// Build 3 diffs with random words and distinct versions.
		diffs := make([]StampedDiff, 3)
		for i := range diffs {
			var d StampedDiff
			for w := 0; w < size/4; w++ {
				if rng.Intn(3) == 0 {
					data := []byte{byte(i + 1), byte(rng.Intn(256)), 0, 0}
					d.Runs = append(d.Runs, StampedRun{
						Off: uint32(w * 4), Data: data, Ver: uint32(i + 1), Lock: 1,
					})
				}
			}
			diffs[i] = d
		}
		apply := func(order []int) []byte {
			dst := make([]byte, size)
			stamps := make([]object.WordStamp, size/4)
			for _, i := range order {
				if _, err := ApplyStamped(dst, stamps, diffs[i], 7); err != nil {
					t.Fatal(err)
				}
			}
			return dst
		}
		a := apply([]int{0, 1, 2})
		b := apply([]int{2, 1, 0})
		c := apply([]int{1, 2, 0})
		return bytes.Equal(a, b) && bytes.Equal(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSinceEntriesVersions(t *testing.T) {
	var c Chain
	for v := uint32(1); v <= 4; v++ {
		c.Append(v, Diff{Runs: []Run{{Off: 0, Data: []byte{byte(v), 0, 0, 0}}}})
	}
	entries, bytes := c.SinceEntries(2)
	if len(entries) != 2 || bytes != 8 {
		t.Fatalf("entries = %d bytes = %d", len(entries), bytes)
	}
	if entries[0].Ver != 3 || entries[1].Ver != 4 {
		t.Errorf("versions = %d, %d", entries[0].Ver, entries[1].Ver)
	}
}

// TestBarrierDiffOntoStamplessHome pins what ApplyStampedEncoded does
// at a barrier home against the per-word oracle. A diff whose runs all
// carry version 0, onto an object with no stamp table, moves exactly
// the oracle's bytes, leaves the object without a table and allocates
// nothing, decode included. The same diff onto an object that holds
// current-epoch lock stamps loses exactly the words the oracle says it
// loses. And a run with a version allocates the table and records it.
func TestBarrierDiffOntoStamplessHome(t *testing.T) {
	const size, epoch = 4096, 3
	twin := make([]byte, size)
	cur := make([]byte, size)
	for i := 0; i < size; i += 24 { // runs of one, two and three words, and an unaligned tail
		for k := 0; k < 4*(1+i/24%3) && i+k < size-1; k++ {
			cur[i+k] = byte(1 + i + k)
		}
	}
	var w wire.Buffer
	AppendStamped(&w, cur, twin, nil, epoch)
	enc := w.Bytes()
	d, err := DecodeStampedDiff(wire.NewReader(enc))
	if err != nil || len(d.Runs) < 100 {
		t.Fatalf("fixture: %d runs, err %v", len(d.Runs), err)
	}
	base := bytes.Repeat([]byte{0xEE}, size)

	// No table: a copy, no table afterwards, no allocation.
	c := &object.Control{Size: size}
	dst := append([]byte(nil), base...)
	want := append([]byte(nil), base...)
	if _, err := oracleApplyStamped(want, nil, d, epoch); err != nil {
		t.Fatal(err)
	}
	if n, err := ApplyStampedEncoded(dst, c, wire.NewReader(enc), epoch); err != nil || n != d.Bytes() {
		t.Fatalf("apply: %d bytes, err %v; want %d", n, err, d.Bytes())
	}
	if !bytes.Equal(dst, want) {
		t.Error("version-0 diff onto a stampless object moved different bytes than the oracle")
	}
	if c.Stamps != nil {
		t.Error("version-0 diff allocated a stamp table")
	}
	var r wire.Reader
	if got := testing.AllocsPerRun(50, func() {
		r = *wire.NewReader(enc)
		if _, err := ApplyStampedEncoded(dst, c, &r, epoch); err != nil {
			panic(err)
		}
	}); got != 0 {
		t.Errorf("decode+apply of a version-0 diff onto a stampless object: %.0f allocations, want 0", got)
	}

	// A table with this epoch's lock stamps on every third word, a
	// foreign epoch's on the next: the former hold their bytes.
	locked := func() []object.WordStamp {
		st := make([]object.WordStamp, size/object.WordSize)
		for w := range st {
			switch w % 3 {
			case 0:
				st[w] = object.WordStamp{Ver: 2, Lock: 1, Epoch: epoch}
			case 1:
				st[w] = object.WordStamp{Ver: 2, Lock: 1, Epoch: epoch - 1}
			}
		}
		return st
	}
	c = &object.Control{Size: size, Stamps: locked()}
	dst = append(dst[:0], base...)
	want = append(want[:0], base...)
	wantStamps := locked()
	if _, err := oracleApplyStamped(want, wantStamps, d, epoch); err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyStampedEncoded(dst, c, wire.NewReader(enc), epoch); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, want) || !reflect.DeepEqual(c.Stamps, wantStamps) {
		t.Error("version-0 diff onto lock-stamped words differs from the oracle's merge")
	}
	if bytes.Equal(dst, cur) || bytes.Equal(dst, base) {
		t.Error("fixture is vacuous: the merge kept everything or nothing")
	}

	// A run with a version needs the table, on an object that had none.
	vd := StampedDiff{Runs: []StampedRun{{Off: 8, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}, Ver: 4, Lock: 9}, {Off: 64, Data: []byte{9, 9, 9, 9}}}}
	var vw wire.Buffer
	vd.Encode(&vw)
	c = &object.Control{Size: size}
	dst = append(dst[:0], base...)
	want = append(want[:0], base...)
	wantStamps = make([]object.WordStamp, size/object.WordSize)
	if _, err := oracleApplyStamped(want, wantStamps, vd, epoch); err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyStampedEncoded(dst, c, wire.NewReader(vw.Bytes()), epoch); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, want) || !reflect.DeepEqual(c.Stamps, wantStamps) {
		t.Error("versioned diff onto a stampless object differs from the oracle's merge")
	}
}

// TestApplyStampedEncodedRejects: counts and lengths are a peer's word.
// A run past the object's end is ApplyStamped's error; a count or a
// length the payload cannot hold is a decode error; neither panics.
func TestApplyStampedEncodedRejects(t *testing.T) {
	enc := encStamped
	past := enc(StampedDiff{Runs: []StampedRun{{Off: 60, Data: make([]byte, 8)}}})
	c := &object.Control{Size: 64}
	_, err := ApplyStampedEncoded(make([]byte, 64), c, wire.NewReader(past), 1)
	_, wantErr := oracleApplyStamped(make([]byte, 64), nil, StampedDiff{Runs: []StampedRun{{Off: 60, Data: make([]byte, 8)}}}, 1)
	if err == nil || err.Error() != wantErr.Error() {
		t.Errorf("run past the end: %v, want %v", err, wantErr)
	}
	good := enc(StampedDiff{Runs: []StampedRun{{Off: 0, Data: []byte{1, 2, 3, 4}}, {Off: 8, Data: []byte{5, 6, 7, 8}}}})
	for cut := 0; cut < len(good); cut++ {
		if _, err := ApplyStampedEncoded(make([]byte, 64), c, wire.NewReader(good[:cut]), 1); !errors.Is(err, wire.ErrPayload) {
			t.Errorf("payload cut at %d of %d: %v, want a payload error", cut, len(good), err)
		}
	}
	huge := append([]byte(nil), good...)
	huge[0], huge[1], huge[2], huge[3] = 0xFF, 0xFF, 0xFF, 0xFF // run count
	if _, err := ApplyStampedEncoded(make([]byte, 64), c, wire.NewReader(huge), 1); !errors.Is(err, wire.ErrPayload) {
		t.Errorf("run count 2^32-1: %v, want a payload error", err)
	}
	huge = append(huge[:0], good...)
	huge[14], huge[15], huge[16], huge[17] = 0xFF, 0xFF, 0xFF, 0xFF // first run's data length
	if _, err := ApplyStampedEncoded(make([]byte, 64), c, wire.NewReader(huge), 1); !errors.Is(err, wire.ErrPayload) {
		t.Errorf("data length 2^32-1: %v, want a payload error", err)
	}
}
