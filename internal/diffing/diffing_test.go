package diffing

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/object"
	"repro/internal/wire"
)

func TestComputeEmptyDiffForIdenticalData(t *testing.T) {
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	d := Compute(data, MakeTwin(data))
	if !d.Empty() || d.Bytes() != 0 {
		t.Errorf("diff of identical data = %+v", d)
	}
}

func TestComputeSingleWordChange(t *testing.T) {
	twin := make([]byte, 32)
	cur := MakeTwin(twin)
	cur[9] = 0xFF // inside word 2
	d := Compute(cur, twin)
	if len(d.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(d.Runs))
	}
	r := d.Runs[0]
	if r.Off != 8 || len(r.Data) != 4 {
		t.Errorf("run = off %d len %d, want off 8 len 4 (word granularity)", r.Off, len(r.Data))
	}
}

func TestComputeCoalescesAdjacentWords(t *testing.T) {
	twin := make([]byte, 64)
	cur := MakeTwin(twin)
	for i := 8; i < 24; i++ { // words 2..5
		cur[i] = 1
	}
	cur[40] = 2 // word 10, separate run
	d := Compute(cur, twin)
	if len(d.Runs) != 2 {
		t.Fatalf("runs = %d, want 2: %+v", len(d.Runs), d.Runs)
	}
	if d.Runs[0].Off != 8 || len(d.Runs[0].Data) != 16 {
		t.Errorf("run0 = %+v", d.Runs[0])
	}
	if d.Runs[1].Off != 40 || len(d.Runs[1].Data) != 4 {
		t.Errorf("run1 = %+v", d.Runs[1])
	}
}

func TestComputeShortTail(t *testing.T) {
	// 10 bytes: words are [0,4) [4,8) [8,10).
	twin := make([]byte, 10)
	cur := MakeTwin(twin)
	cur[9] = 7
	d := Compute(cur, twin)
	if len(d.Runs) != 1 || d.Runs[0].Off != 8 || len(d.Runs[0].Data) != 2 {
		t.Errorf("tail diff = %+v", d.Runs)
	}
	dst := make([]byte, 10)
	if err := Apply(dst, d); err != nil {
		t.Fatal(err)
	}
	if dst[9] != 7 {
		t.Error("tail not applied")
	}
}

func TestComputePanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Compute(make([]byte, 4), make([]byte, 8))
}

func TestApplyReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	twin := make([]byte, 1024)
	rng.Read(twin)
	cur := MakeTwin(twin)
	for i := 0; i < 50; i++ {
		cur[rng.Intn(len(cur))] = byte(rng.Int())
	}
	d := Compute(cur, twin)
	dst := MakeTwin(twin)
	if err := Apply(dst, d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, cur) {
		t.Error("twin+diff != current")
	}
}

func TestApplyRejectsOutOfRange(t *testing.T) {
	d := Diff{Runs: []Run{{Off: 10, Data: []byte{1, 2, 3, 4}}}}
	if err := Apply(make([]byte, 12), d); err == nil {
		t.Error("out-of-range apply should fail")
	}
}

func TestDiffEncodeDecodeRoundTrip(t *testing.T) {
	d := Diff{Runs: []Run{
		{Off: 0, Data: []byte{1, 2, 3, 4}},
		{Off: 100, Data: []byte{9, 9}},
	}}
	var w wire.Buffer
	d.Encode(&w)
	if w.Len() != d.EncodedSize() {
		t.Errorf("EncodedSize = %d, actual %d", d.EncodedSize(), w.Len())
	}
	got, err := DecodeDiff(wire.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 2 || got.Runs[0].Off != 0 || got.Runs[1].Off != 100 ||
		!bytes.Equal(got.Runs[1].Data, []byte{9, 9}) {
		t.Errorf("decoded = %+v", got)
	}
}

func TestDecodeDiffTruncated(t *testing.T) {
	var w wire.Buffer
	Diff{Runs: []Run{{Off: 4, Data: []byte{1, 2, 3, 4}}}}.Encode(&w)
	b := w.Bytes()
	if _, err := DecodeDiff(wire.NewReader(b[:len(b)-2])); err == nil {
		t.Error("truncated decode should fail")
	}
}

// TestDecodeCountSizesNoAllocation hands both decoders a four-byte
// payload claiming 2^32-1 runs, as one TBarrierDiff datagram from an
// unauthenticated UDP peer could. The count used to size a make before
// any run was read (~160 GiB for the stamped form); it must instead fail
// the decode, having allocated next to nothing.
func TestDecodeCountSizesNoAllocation(t *testing.T) {
	var w wire.Buffer
	w.U32(^uint32(0))
	for name, decode := range map[string]func(*wire.Reader) error{
		"DecodeDiff":        func(r *wire.Reader) error { _, err := DecodeDiff(r); return err },
		"DecodeStampedDiff": func(r *wire.Reader) error { _, err := DecodeStampedDiff(r); return err },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode(wire.NewReader(w.Bytes()))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s accepted a count of 2^32-1 runs in 4 bytes", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<10 {
			t.Errorf("%s allocated %d bytes rejecting the count", name, grew)
		}
	}
}

func TestDiffRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		size := int(n%2048) + 4
		rng := rand.New(rand.NewSource(seed))
		twin := make([]byte, size)
		rng.Read(twin)
		cur := MakeTwin(twin)
		for i := 0; i < size/8; i++ {
			cur[rng.Intn(size)] ^= byte(1 + rng.Intn(255))
		}
		d := Compute(cur, twin)
		// Encode/decode then apply onto the twin.
		var w wire.Buffer
		d.Encode(&w)
		got, err := DecodeDiff(wire.NewReader(w.Bytes()))
		if err != nil {
			return false
		}
		dst := MakeTwin(twin)
		if err := Apply(dst, got); err != nil {
			return false
		}
		return bytes.Equal(dst, cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStampChanged(t *testing.T) {
	twin := make([]byte, 32)
	cur := MakeTwin(twin)
	cur[0] = 1  // word 0
	cur[13] = 1 // word 3
	stamps := make([]object.WordStamp, 8)
	st := object.WordStamp{Ver: 5, Lock: 2, Node: 1}
	n := StampChanged(stamps, cur, twin, st)
	if n != 2 {
		t.Fatalf("stamped %d words, want 2", n)
	}
	if stamps[0] != st || stamps[3] != st {
		t.Error("wrong words stamped")
	}
	if stamps[1] != (object.WordStamp{}) {
		t.Error("unchanged word stamped")
	}
}

func TestFilterByStampOnDemandDiff(t *testing.T) {
	// Simulate the Figure 7b scenario: word 0 written at ver 1, word 1
	// at ver 2, word 2 at ver 3. A requester that has seen up to ver 1
	// must receive exactly words 1 and 2 — no redundant word 0.
	cur := []byte{
		0xAA, 0, 0, 0, // word 0, ver 1
		0xBB, 0, 0, 0, // word 1, ver 2
		0xCC, 0, 0, 0, // word 2, ver 3
		0, 0, 0, 0, // word 3, never written
	}
	stamps := []object.WordStamp{
		{Ver: 1, Lock: 0}, {Ver: 2, Lock: 0}, {Ver: 3, Lock: 0}, {},
	}
	d := FilterByStamp(cur, stamps, func(s object.WordStamp) bool { return s.Ver > 1 })
	if d.Bytes() != 8 {
		t.Fatalf("on-demand diff carries %d bytes, want 8", d.Bytes())
	}
	if len(d.Runs) != 1 || d.Runs[0].Off != 4 {
		t.Errorf("runs = %+v, want single run at offset 4", d.Runs)
	}
}

func TestFilterByStampShortStampArray(t *testing.T) {
	cur := make([]byte, 16)
	d := FilterByStamp(cur, nil, func(object.WordStamp) bool { return true })
	if !d.Empty() {
		t.Error("no stamps means no words included")
	}
}

func TestChainAccumulation(t *testing.T) {
	// The Figure 7a pathology: the same word updated at every version
	// means a late joiner receives it redundantly, once per version.
	var c Chain
	for ver := uint32(1); ver <= 5; ver++ {
		d := Diff{Runs: []Run{{Off: 0, Data: []byte{byte(ver), 0, 0, 0}}}}
		c.Append(ver, d)
	}
	diffs, total := c.Since(0)
	if len(diffs) != 5 || total != 20 {
		t.Errorf("Since(0) = %d diffs %d bytes, want 5 diffs 20 bytes", len(diffs), total)
	}
	// A requester at ver 3 still gets redundant traffic for vers 4,5.
	diffs, total = c.Since(3)
	if len(diffs) != 2 || total != 8 {
		t.Errorf("Since(3) = %d diffs %d bytes", len(diffs), total)
	}
	// Applying in order yields the latest value.
	dst := make([]byte, 4)
	all, _ := c.Since(0)
	for _, d := range all {
		if err := Apply(dst, d); err != nil {
			t.Fatal(err)
		}
	}
	if dst[0] != 5 {
		t.Errorf("final value = %d, want 5", dst[0])
	}
}

func TestChainTruncate(t *testing.T) {
	var c Chain
	for ver := uint32(1); ver <= 4; ver++ {
		c.Append(ver, Diff{Runs: []Run{{Off: 0, Data: make([]byte, 4)}}})
	}
	if c.StoredBytes() != 16 {
		t.Errorf("StoredBytes = %d", c.StoredBytes())
	}
	c.Truncate(2)
	if c.Len() != 2 {
		t.Errorf("Len after truncate = %d, want 2", c.Len())
	}
	if _, total := c.Since(0); total != 8 {
		t.Errorf("bytes after truncate = %d, want 8", total)
	}
}

func TestChainIgnoresEmptyDiffs(t *testing.T) {
	var c Chain
	c.Append(1, Diff{})
	if c.Len() != 0 {
		t.Error("empty diff stored")
	}
}

// TestOnDemandBeatsChain verifies the paper's core §3.5 claim: with a
// migratory update pattern, per-field timestamps send strictly less data
// than accumulated diff chains.
func TestOnDemandBeatsChain(t *testing.T) {
	const words = 64
	size := words * object.WordSize
	cur := make([]byte, size)
	stamps := make([]object.WordStamp, words)
	var chain Chain

	// Ten updates, each rewriting the whole object at version v.
	for v := uint32(1); v <= 10; v++ {
		twin := MakeTwin(cur)
		for i := range cur {
			cur[i] = byte(v)
		}
		d := Compute(cur, twin)
		chain.Append(v, d)
		StampChanged(stamps, cur, twin, object.WordStamp{Ver: v})
	}

	// A requester that saw nothing: chain sends 10x the object.
	_, chainBytes := chain.Since(0)
	onDemand := FilterByStamp(cur, stamps, func(s object.WordStamp) bool { return s.Ver > 0 })
	if onDemand.Bytes() != size {
		t.Errorf("on-demand bytes = %d, want %d", onDemand.Bytes(), size)
	}
	if chainBytes != 10*size {
		t.Errorf("chain bytes = %d, want %d", chainBytes, 10*size)
	}
	if onDemand.Bytes() >= chainBytes {
		t.Error("per-field timestamps should beat diff accumulation")
	}
}
