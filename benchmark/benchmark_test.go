package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// tinySizes runs every workload through the same code as the benchmark
// in a few milliseconds.
func tinySizes() sizes {
	return sizes{
		Ranks:      2,
		DMM:        1 << 20,
		StencilN:   32,
		MWObjects:  4,
		MWWords:    1 << 10,
		Locks:      4,
		CSPerEpoch: 8,
		OOCRows:    32,
		OOCWords:   512,      // 4 KiB rows: each rank's 16 rows are 64 KiB
		OOCDMM:     32 << 10, // half of that
		Warmup:     1,
		CellScale:  2,
	}
}

func tinyRun(t *testing.T, wl *workload, seed int64, traced, corrupt bool) result {
	t.Helper()
	out := t.TempDir()
	res, err := runOne(runConfig{wl: wl, sz: tinySizes(), seed: seed, window: time.Hour, maxEpochs: 3,
		traced: traced, corrupt: corrupt, outDir: out,
		timeSetUp: func() (float64, error) { return timeOneSetUp(wl, tinySizes(), seed, out) }}, new(bytes.Buffer))
	if err != nil {
		t.Fatalf("%s: %v", wl.name, err)
	}
	return res
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts that res carries exactly the metrics of defs,
// each once (a map cannot hold it twice) and with its registered unit.
func checkMetrics(t *testing.T, what string, res result, defs []metric) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, registry has %d", what, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", what, d.Name)
			continue
		}
		if v.Unit != d.Unit {
			t.Errorf("%s: metric %s has unit %q, registry says %q", what, d.Name, v.Unit, d.Unit)
		}
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.Name)
		}
	}
}

func TestWorkloadsEndToEnd(t *testing.T) {
	for _, wl := range workloads {
		res := tinyRun(t, wl, 1, false, false)
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", wl.name, res.Correct, res.Failed, res.Attempted)
		}
		checkMetrics(t, wl.name, res, endToEnd)
		for name, v := range res.Metrics {
			if !(v.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.name, name, v.Value)
			}
		}
	}
}

func TestWorkloadsTraced(t *testing.T) {
	wl := findWorkload("outofcore")
	out := t.TempDir()
	res, err := runOne(runConfig{wl: wl, sz: tinySizes(), seed: 1, window: time.Hour, maxEpochs: 3,
		traced: true, outDir: out}, new(bytes.Buffer))
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, wl.name, res, perLayer)
	if c := res.Metrics["trace.coverage"].Value; c < 0.5 || c > 1.0001 {
		t.Errorf("trace.coverage = %v", c)
	}
	if got := res.Metrics["dmm.swapouts_per_epoch"].Value; got == 0 {
		t.Error("outofcore swapped nothing out")
	}
	b, err := os.ReadFile(filepath.Join(out, "outofcore.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []map[string]any
	if err := json.Unmarshal(b, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("span file: %d spans, err %v", len(spans), err)
	}
}

// The layers the workloads are meant to leave alone, asserted from the
// counters of a traced window (without the cells).
func TestWorkloadsSeparateLayers(t *testing.T) {
	for _, wl := range workloads {
		s, _, err := setUp(wl, tinySizes(), 1, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		w, err := s.runWindow(time.Hour, 3, true)
		s.close()
		if err != nil {
			t.Fatal(err)
		}
		tot := w.total()
		if diffs := tot.DiffsMade; (wl.name == "stencil" || wl.name == "outofcore") != (diffs == 0) {
			t.Errorf("%s: %d diffs", wl.name, diffs)
		}
		if swaps := tot.SwapOuts; (wl.name == "outofcore") != (swaps > 0) {
			t.Errorf("%s: %d swap-outs", wl.name, swaps)
		}
		st := foldSpans(w, w.spans())
		if st.count[kFault] == 0 && wl.name != "lockstep" {
			t.Errorf("%s: no view open was classified as a fault", wl.name)
		}
		if st.count[kAcquire] == 0 && wl.name == "lockstep" {
			t.Error("lockstep: no acquire spans")
		}
	}
}

// A corrupted word must fail verification and the command's exit code.
func TestCorruptionFailsTheRun(t *testing.T) {
	for _, wl := range workloads {
		res := tinyRun(t, wl, 1, false, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted run reported correct=%v failed=%d", wl.name, res.Correct, res.Failed)
		}
		if code := exitCode(res); code == 0 {
			t.Errorf("%s: corrupted run would exit 0", wl.name)
		}
	}
	if code := exitCode(result{Correct: true, Attempted: 1}); code != 0 {
		t.Errorf("correct run would exit %d", code)
	}
}

// Two seeds give different inputs and, where the design says so, the
// same counts.
func TestSeedsChangeInputsNotCounts(t *testing.T) {
	if stencilInit(1, 0, 3, 3) == stencilInit(2, 0, 3, 3) {
		t.Error("stencil initial values do not depend on the seed")
	}
	if denseWord(1, 0, 0, 7) == denseWord(2, 0, 0, 7) && initWord(1, 1, 7) == initWord(2, 1, 7) {
		t.Error("multiwriter values do not depend on the seed")
	}
	a, b := lockChoiceSeed(1, 0), lockChoiceSeed(2, 0)
	same := true
	for i := 0; i < 16; i++ {
		same = same && nextLock(&a, 8) == nextLock(&b, 8)
	}
	if same {
		t.Error("lockstep lock choices do not depend on the seed")
	}
	if fillWord(1, 0, 5) == fillWord(2, 0, 5) {
		t.Error("outofcore values do not depend on the seed")
	}
	// Message and byte counts are fixed by the sizes on the workloads
	// with one writer per object; lock choice moves lockstep's, and
	// multiwriter's retransmissions are the network's.
	for _, name := range []string{"stencil", "outofcore"} {
		r1, r2 := tinyRun(t, findWorkload(name), 1, false, false), tinyRun(t, findWorkload(name), 2, false, false)
		for _, m := range []string{"msgs_per_epoch", "wire_KB_per_epoch"} {
			if r1.Metrics[m].Value != r2.Metrics[m].Value {
				t.Errorf("%s: %s is %v with seed 1 and %v with seed 2", name, m, r1.Metrics[m].Value, r2.Metrics[m].Value)
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		label string
	}{{0, "p50"}, {99, "p50"}, {100, "p90"}, {999, "p90"}, {1000, "p99"}, {9999, "p99"}, {10000, "p99.9"}} {
		if _, label := tailPercentile(c.n); label != c.label {
			t.Errorf("tailPercentile(%d) = %s, want %s", c.n, label, c.label)
		}
	}
	v := make([]int64, 1000)
	for i := range v {
		v[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.5, 500}, {0.99, 990}, {0.1, 100}, {0, 1}, {1, 1000}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing is not 0")
	}
}

func TestSelfTimes(t *testing.T) {
	// A 100 ns phase holding a 30 ns open (itself holding a 10 ns child)
	// and a 20 ns copy; then a sibling with no children.
	sp := []span{
		{Start: 0, End: 100, Parent: -1, Kind: kPhase},
		{Start: 10, End: 40, Parent: 0, Kind: kOpen},
		{Start: 15, End: 25, Parent: 1, Kind: kApp},
		{Start: 50, End: 70, Parent: 0, Kind: kCopy},
		{Start: 100, End: 130, Parent: -1, Kind: kBarrier},
	}
	if got, want := selfTimes(sp), []int64{50, 20, 10, 20, 30}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderNesting(t *testing.T) {
	s, _, err := setUp(findWorkload("stencil"), tinySizes(), 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	w, err := s.runWindow(time.Hour, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range w.recs {
		sp := r.spans()
		if r.top != -1 {
			t.Errorf("rank %d: a span was left open", r.rank)
		}
		for i, x := range sp {
			if x.End < x.Start || int(x.Parent) >= i {
				t.Fatalf("rank %d span %d malformed: %+v", r.rank, i, x)
			}
			if x.Parent >= 0 && (x.Start < sp[x.Parent].Start || x.End > sp[x.Parent].End) {
				t.Fatalf("rank %d span %d escapes its parent", r.rank, i)
			}
		}
	}
}

func TestJudge(t *testing.T) {
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01} }
	for _, c := range []struct {
		name  string
		a, b  []float64
		dir   string
		bound float64
		want  string
	}{
		{"unchanged", steady(100), steady(101), lower, 0.10, same},
		{"slower time", steady(100), steady(120), lower, 0.10, worse},
		{"faster time", steady(100), steady(80), lower, 0.10, better},
		{"lower rate", steady(100), steady(80), higher, 0.10, worse},
		{"higher rate", steady(100), steady(120), higher, 0.10, better},
		{"within a tight bound", []float64{100, 100.1, 100.2}, []float64{101.4, 101.5, 101.6}, lower, 0.02, same},
		{"noisy baseline", []float64{80, 100, 125}, steady(130), lower, 0.10, unresolved},
		{"noisy candidate", steady(100), []float64{90, 100, 140}, lower, 0.10, unresolved},
		{"single runs", []float64{100}, []float64{150}, lower, 0.10, worse},
	} {
		if got, _ := judge(c.a, c.b, c.dir, c.bound); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64, seed int64, failed int) string {
		r := results{Fingerprint: fingerprint{CPU: "test", Seed: seed}, Workloads: map[string]*workloadResults{}}
		for _, wl := range workloads {
			wr := &workloadResults{Attempted: 10, Failed: failed, EndToEnd: map[string][]float64{}}
			for _, d := range endToEnd {
				wr.EndToEnd[d.Name] = []float64{100 * scale, 100.5 * scale, 101 * scale}
			}
			r.Workloads[wl.name] = wr
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, again, slow := write("a.json", 1, 1, 0), write("b.json", 1.001, 1, 0), write("c.json", 1.5, 1, 0)
	other, broken := write("d.json", 1, 2, 0), write("e.json", 1, 1, 1)
	var out bytes.Buffer
	if worse, err := compareFiles(base, again, false, &out); err != nil || worse {
		t.Errorf("same commit twice: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if worse, err := compareFiles(base, slow, false, &out); err != nil || !worse {
		t.Errorf("1.5x slower: worse=%v err=%v", worse, err)
	}
	if _, err := compareFiles(base, other, false, &out); err == nil {
		t.Error("differing fingerprints compared without -force")
	}
	if _, err := compareFiles(base, other, true, &out); err != nil {
		t.Errorf("-force: %v", err)
	}
	out.Reset()
	if worse, err := compareFiles(base, broken, false, &out); err != nil || !worse || !strings.Contains(out.String(), "failed_share") {
		t.Errorf("a verification failure must be worse: worse=%v err=%v", worse, err)
	}
}

// BENCHMARK.json and the registry must name the same things.
func TestManifestMatchesRegistry(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the registry:\n%v\n%v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Error("per_layer differs from the registry")
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the manifest's limits", len(perLayer), len(endToEnd))
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the benchmark", len(m.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if m.Workloads[i].Name != wl.name {
			t.Errorf("workload %d is %q in the manifest, %q in the benchmark", i, m.Workloads[i].Name, wl.name)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is registered twice", d.Name)
		}
		seen[d.Name] = true
	}
}
