package diffing

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/object"
	"repro/internal/wire"
)

// scanCase is one input to the scan: an object, its twin, a stamp table
// (possibly nil, possibly shorter than the object) and the epoch.
type scanCase struct {
	cur, twin []byte
	stamps    []object.WordStamp
	epoch     uint32
}

func encStamped(d StampedDiff) []byte {
	var w wire.Buffer
	d.Encode(&w)
	return w.Bytes()
}

func encPlain(d Diff) []byte {
	var w wire.Buffer
	d.Encode(&w)
	return w.Bytes()
}

// checkAgainstOracle requires every form of the scan to agree with the
// pre-engine loops on c: the encoded plain and stamped diffs byte for
// byte, AppendStamped with the structured form, and StampChanged's table
// and count.
func checkAgainstOracle(t *testing.T, c scanCase) {
	t.Helper()
	if got, want := encPlain(Compute(c.cur, c.twin)), encPlain(oracleCompute(c.cur, c.twin)); !bytes.Equal(got, want) {
		t.Fatalf("Compute differs from the oracle on %d bytes:\n got %x\nwant %x", len(c.cur), got, want)
	}
	want := oracleComputeStamped(c.cur, c.twin, c.stamps, c.epoch)
	wantEnc := encStamped(want)
	if got := encStamped(ComputeStamped(c.cur, c.twin, c.stamps, c.epoch)); !bytes.Equal(got, wantEnc) {
		t.Fatalf("ComputeStamped differs from the oracle on %d bytes, %d stamps:\n got %x\nwant %x", len(c.cur), len(c.stamps), got, wantEnc)
	}
	var w wire.Buffer
	w.U8(0xAB) // AppendStamped appends: what is there stays
	if n := AppendStamped(&w, c.cur, c.twin, c.stamps, c.epoch); n != want.Bytes() {
		t.Fatalf("AppendStamped reports %d data bytes, oracle diff carries %d", n, want.Bytes())
	}
	if got := w.Bytes(); got[0] != 0xAB || !bytes.Equal(got[1:], wantEnc) {
		t.Fatalf("AppendStamped differs from the oracle's encoding:\n got %x\nwant %x", got[1:], wantEnc)
	}
	words := (len(c.cur) + object.WordSize - 1) / object.WordSize
	gotSt, wantSt := make([]object.WordStamp, words), make([]object.WordStamp, words)
	st := object.WordStamp{Ver: 9, Lock: 3, Node: 1, Epoch: c.epoch}
	gotN, wantN := StampChanged(gotSt, c.cur, c.twin, st), oracleStampChanged(wantSt, c.cur, c.twin, st)
	if gotN != wantN || !reflect.DeepEqual(gotSt, wantSt) {
		t.Fatalf("StampChanged stamped %d words, oracle %d (tables equal: %v)", gotN, wantN, reflect.DeepEqual(gotSt, wantSt))
	}
}

// randomCase draws a case of n bytes: modified stretches of every
// alignment (single bytes, odd words of a pair, long blocks), and a
// stamp table of random length whose entries come from a few (ver,
// lock) values in the current epoch and another one, so that runs split
// mid-stretch and foreign-epoch stamps sit beside current ones.
func randomCase(rng *rand.Rand, n int) scanCase {
	c := scanCase{twin: make([]byte, n), epoch: uint32(rng.Intn(3))}
	rng.Read(c.twin)
	c.cur = append([]byte(nil), c.twin...)
	for i := 0; i < n; {
		switch rng.Intn(4) {
		case 0: // leave a gap
			i += 1 + rng.Intn(24)
		case 1: // one byte
			c.cur[i] ^= 0xFF
			i += 1 + rng.Intn(8)
		default: // a block
			for end := min(n, i+1+rng.Intn(40)); i < end; i++ {
				c.cur[i] ^= byte(1 + rng.Intn(255))
			}
		}
	}
	words := (n + object.WordSize - 1) / object.WordSize
	if k := rng.Intn(4); k > 0 { // k == 0: no table at all
		c.stamps = make([]object.WordStamp, []int{0, words / 2, words, words + 3}[k])
		for w := range c.stamps {
			if rng.Intn(3) > 0 {
				w0 := w - w%(1+rng.Intn(5)) // neighbours often share a stamp
				c.stamps[w] = object.WordStamp{
					Ver: uint32(w0 % 3), Lock: uint16(w0 % 2),
					Epoch: c.epoch + uint32(rng.Intn(4)/3), // mostly the current epoch
				}
			}
		}
	}
	return c
}

func TestScanMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for n := 0; n <= 200; n++ {
		for rep := 0; rep < 40; rep++ {
			checkAgainstOracle(t, randomCase(rng, n))
		}
	}
	for _, n := range []int{256 << 10, 256<<10 + 3} {
		checkAgainstOracle(t, randomCase(rng, n))
	}
}

// TestScanMatchesOracleStructured walks the shapes the pair-wide loop
// has to get right one at a time: a modified word in each half of a
// pair, runs that start or end on the odd word, every tail length, a
// stamp change in the middle of a modified stretch (inside a pair and
// at a pair boundary), foreign-epoch stamps, and a table that ends
// before the object does.
func TestScanMatchesOracleStructured(t *testing.T) {
	flip := func(n int, at ...int) scanCase {
		c := scanCase{twin: make([]byte, n), cur: make([]byte, n), epoch: 5}
		for _, i := range at {
			c.cur[i] = 1
		}
		return c
	}
	span := func(n, lo, hi int) scanCase {
		c := flip(n)
		for i := lo; i < hi; i++ {
			c.cur[i] = 0xEE
		}
		return c
	}
	var cases []scanCase
	for n := 0; n <= 24; n++ {
		cases = append(cases, flip(n))
		for i := 0; i < n; i++ {
			cases = append(cases, flip(n, i), span(n, i, n), span(n, 0, i+1))
		}
	}
	cases = append(cases,
		span(64, 4, 8), span(64, 4, 12), span(64, 8, 12), span(64, 4, 20), span(64, 12, 36),
		flip(64, 0, 8, 16), flip(64, 4, 12, 20), flip(64, 3, 4), flip(64, 7, 8),
	)
	for _, at := range []int{1, 2, 3, 4, 5, 8} { // the stamp changes at word `at` of a fully modified object
		for _, foreign := range []bool{false, true} {
			for _, short := range []bool{false, true} {
				c := span(48, 0, 48)
				c.stamps = make([]object.WordStamp, 12)
				for w := range c.stamps {
					c.stamps[w] = object.WordStamp{Ver: 1, Lock: 7, Epoch: c.epoch}
					if w >= at {
						c.stamps[w].Ver = 2
						if foreign {
							c.stamps[w].Epoch++ // reads as blank
						}
					}
				}
				if short {
					c.stamps = c.stamps[:at+1] // words past it are blank
				}
				cases = append(cases, c)
			}
		}
	}
	// Same version under another lock still splits.
	c := span(32, 0, 32)
	c.stamps = make([]object.WordStamp, 8)
	for w := range c.stamps {
		c.stamps[w] = object.WordStamp{Ver: 4, Lock: uint16(w / 3), Epoch: c.epoch}
	}
	cases = append(cases, c)
	for _, c := range cases {
		checkAgainstOracle(t, c)
	}
}

func FuzzScanAgainstOracle(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1}, []byte{1, 1, 2}, uint8(1))
	f.Add(bytes.Repeat([]byte{0xFF, 0}, 33), []byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, delta, stampBytes []byte, epoch uint8) {
		// delta is cur XOR twin; each stamp byte is (ver 0-3, lock 0-1,
		// current epoch or the next).
		c := scanCase{cur: delta, twin: make([]byte, len(delta)), epoch: uint32(epoch)}
		if len(stampBytes) > 0 {
			c.stamps = make([]object.WordStamp, len(stampBytes))
			for w, b := range stampBytes {
				c.stamps[w] = object.WordStamp{Ver: uint32(b & 3), Lock: uint16(b >> 2 & 1), Epoch: uint32(epoch) + uint32(b>>3&1)}
			}
		}
		checkAgainstOracle(t, c)
	})
}

// TestFilterByStampMatchesOracle: the arena-backed on-demand diff is the
// per-run one, for tables shorter and longer than the object.
func TestFilterByStampMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 80; n++ {
		for rep := 0; rep < 20; rep++ {
			c := randomCase(rng, n)
			known := uint32(rng.Intn(3))
			include := func(s object.WordStamp) bool { return s.Lock == 1 && s.Ver > known && s.Epoch == c.epoch }
			got, want := encPlain(FilterByStamp(c.cur, c.stamps, include)), encPlain(oracleFilterByStamp(c.cur, c.stamps, include))
			if !bytes.Equal(got, want) {
				t.Fatalf("FilterByStamp differs from the oracle on %d bytes, %d stamps:\n got %x\nwant %x", n, len(c.stamps), got, want)
			}
		}
	}
}

// sparse256K is a 256 KiB object with every 32nd word modified: 2,048
// runs of one word.
func sparse256K() (cur, twin []byte) {
	twin = make([]byte, 256<<10)
	cur = make([]byte, 256<<10)
	for i := 0; i < len(cur); i += 32 * object.WordSize {
		cur[i] = 1
	}
	return cur, twin
}

// TestDiffAllocations: a diff's storage is allocated once at its final
// size whatever the run count — the run slice and the data arena for a
// structured diff, plus the buffer when it is encoded — and the form the
// barrier uses allocates the buffer alone.
func TestDiffAllocations(t *testing.T) {
	if raceBuild {
		t.Skip("the scan's scratch comes from a sync.Pool, which the race detector makes lossy")
	}
	cur, twin := sparse256K()
	if d := Compute(cur, twin); len(d.Runs) != 2048 {
		t.Fatalf("fixture has %d runs, want 2048", len(d.Runs))
	}
	stamps := make([]object.WordStamp, len(cur)/object.WordSize)
	for w := range stamps {
		stamps[w].Ver = uint32(w % 32) // FilterByStamp below picks the modified words
	}
	for _, tc := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"Compute", 2, func() { Compute(cur, twin) }},
		{"ComputeStamped+Encode", 3, func() {
			var w wire.Buffer
			ComputeStamped(cur, twin, nil, 1).Encode(&w)
		}},
		{"AppendStamped", 1, func() {
			var w wire.Buffer
			AppendStamped(&w, cur, twin, nil, 1)
		}},
		{"FilterByStamp", 2, func() {
			if d := FilterByStamp(cur, stamps, func(s object.WordStamp) bool { return s.Ver == 0 }); len(d.Runs) != 2048 {
				t.Fatalf("FilterByStamp found %d runs, want 2048", len(d.Runs))
			}
		}},
	} {
		if got := testing.AllocsPerRun(20, tc.f); got > tc.max {
			t.Errorf("%s: %.0f allocations, want at most %.0f", tc.name, got, tc.max)
		}
	}
}

// TestRunDataDoesNotOverlap: runs share an arena, so each run's capacity
// must end where its data does — appending to one may not reach the
// next.
func TestRunDataDoesNotOverlap(t *testing.T) {
	cur, twin := sparse256K()
	d := Compute(cur, twin)
	_ = append(d.Runs[0].Data, 0xAA, 0xAA, 0xAA, 0xAA)
	if !bytes.Equal(d.Runs[1].Data, cur[d.Runs[1].Off:][:4]) {
		t.Fatal("appending to run 0's data overwrote run 1's")
	}
	sd := ComputeStamped(cur, twin, nil, 1)
	_ = append(sd.Runs[0].Data, 0xAA, 0xAA, 0xAA, 0xAA)
	if !bytes.Equal(sd.Runs[1].Data, cur[sd.Runs[1].Off:][:4]) {
		t.Fatal("appending to stamped run 0's data overwrote run 1's")
	}
}
