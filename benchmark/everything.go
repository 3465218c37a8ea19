package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// results is a complete set of runs: what `go run ./benchmark` writes
// and what -compare reads. Every metric keeps the value of each run, so
// a comparison can tell a difference from the set's own spread.
type results struct {
	Fingerprint fingerprint `json:"fingerprint"`
	// Claim is what the change that produced this file says it gained;
	// the change that defined the benchmark claims nothing.
	Claim     *string                     `json:"claim"`
	Workloads map[string]*workloadResults `json:"workloads"`
	// Cells holds the isolated cells once: they do not depend on the
	// workload, so the values every workload's traced run measured are
	// that many runs of the same cell.
	Cells map[string][]float64 `json:"cells"`
}

type workloadResults struct {
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	EndToEnd  map[string][]float64 `json:"end_to_end"` // one value per untraced run
	Traced    map[string][]float64 `json:"traced"`     // one value: the traced run
}

// untracedRuns is how many untraced runs of each workload a set holds:
// the fewest that give -compare a spread to tell "same" from
// "unresolved" with.
const untracedRuns = 3

// child runs this executable again with args and returns the last line
// it printed. Every run is a process of its own, so that peak RSS, the
// garbage collector's state and the slab pool start clean.
func child(stderr io.Writer, args ...string) (lastLine []byte, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	err = cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	return lines[len(lines)-1], err
}

// runInChild runs one workload in a child and returns its result line.
func runInChild(stderr io.Writer, args ...string) (result, error) {
	line, runErr := child(stderr, args...)
	var res result
	if err := json.Unmarshal(line, &res); err != nil {
		return result{}, errors.Join(fmt.Errorf("child %v printed no result: %w", args, err), runErr)
	}
	return res, nil // a child that verified wrongly exits non-zero and still reports
}

// setUpInChild times one set-up of a workload in a child (-setup). What
// a user pays for is the set-up of a fresh process: a second cluster in
// one process takes twice as long, because its arenas reuse the first
// one's memory, which has to be zeroed.
func setUpInChild(stderr io.Writer, workload string, seed int64) (float64, error) {
	line, err := child(stderr, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-setup")
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	return strconv.ParseFloat(string(line), 64)
}

// runEverything runs each workload, one child at a time: untracedRuns
// untraced runs with consecutive seeds, then one traced run. It prints a
// table per workload and one of the isolated cells, writes
// benchmark/out/results.json and reports whether any verification
// failed.
func runEverything(sz sizes, seed int64, seconds float64, stdout, stderr io.Writer) (failed bool, err error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}
	all := results{Fingerprint: newFingerprint(sz, seed, int(seconds)),
		Workloads: map[string]*workloadResults{}, Cells: map[string][]float64{}}
	isCell := map[string]bool{}
	for _, d := range cellDefs {
		isCell[d.Name] = true
	}
	for _, wl := range workloads {
		wr := &workloadResults{EndToEnd: map[string][]float64{}, Traced: map[string][]float64{}}
		all.Workloads[wl.name] = wr
		common := []string{"-workload", wl.name, "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64)}
		for i := 0; i <= untracedRuns; i++ {
			traced, trace := i == untracedRuns, "0"
			if traced {
				trace = "1"
			}
			args := append(common, "-seed", strconv.FormatInt(seed+int64(i%untracedRuns), 10), "-trace", trace)
			res, err := runInChild(stderr, args...)
			if err != nil {
				return false, err
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			for name, v := range res.Metrics {
				into := wr.EndToEnd
				switch {
				case isCell[name]:
					into = all.Cells
				case traced:
					into = wr.Traced
				}
				into[name] = append(into[name], v.Value)
			}
		}
		fmt.Fprintf(stdout, "\n== %s: %d of %d verification units failed (failed_share %.6f)\n",
			wl.name, wr.Failed, wr.Attempted, float64(wr.Failed)/float64(wr.Attempted))
		printSet(stdout, endToEnd, wr.EndToEnd)
		printSet(stdout, tracedDefs, wr.Traced)
		failed = checkTrace(stdout, wl, wr.Traced) || failed || wr.Failed > 0
	}
	fmt.Fprintf(stdout, "\n== isolated cells\n")
	printSet(stdout, cellDefs, all.Cells)
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return failed, err
	}
	path := filepath.Join(outDir, "results.json")
	fmt.Fprintf(stdout, "\nwrote %s\n", path)
	return failed, os.WriteFile(path, append(b, '\n'), 0o644)
}

// printSet prints the median of each metric's runs, their spread when
// there are several, and the run count.
func printSet(w io.Writer, defs []metric, vals map[string][]float64) {
	for _, d := range defs {
		v := vals[d.Name]
		if len(v) == 0 {
			continue
		}
		fmt.Fprintf(w, "%-34s %14.4f %-6s", d.Name, median(v), d.Unit)
		if len(v) > 1 {
			fmt.Fprintf(w, " spread %5.2f%% runs=%d", 100*spread(v), len(v))
		}
		fmt.Fprintln(w)
	}
}

// separation is what the traced pass must show for a workload to be
// exercising the layers it exists for: the named shares add up to at
// least half the epoch, and the named counts stay at zero.
var separation = map[string]struct{ shares, zero []string }{
	"stencil":     {[]string{"share.app", "share.view_open"}, []string{"diffing.diffs_per_epoch", "dmm.swapouts_per_epoch"}},
	"multiwriter": {[]string{"share.barrier_wait", "share.barrier_work", "share.fault"}, []string{"dmm.swapouts_per_epoch"}},
	"lockstep":    {[]string{"share.lock"}, []string{"dmm.swapouts_per_epoch"}},
	"outofcore":   {[]string{"share.fault"}, []string{"diffing.diffs_per_epoch"}},
}

// checkTrace reads a workload's traced pass. Spans that cover less than
// 95% of the epoch time are a failure of the benchmark itself. A
// workload that no longer spends half its time in its own layers, and a
// reconciliation ratio more than a factor of two from 1, are printed
// for a later issue to chase; they fail nothing.
func checkTrace(w io.Writer, wl *workload, traced map[string][]float64) (failed bool) {
	get := func(name string) float64 {
		if v := traced[name]; len(v) > 0 {
			return v[0]
		}
		return 0
	}
	if c := get("trace.coverage"); c < 0.95 {
		fmt.Fprintf(w, "FAILED: trace.coverage = %.3f on %s: the spans miss more than 5%% of the epoch time\n", c, wl.name)
		failed = true
	}
	sep := separation[wl.name]
	sum := 0.0
	for _, name := range sep.shares {
		sum += get(name)
	}
	if sum < 0.5 {
		fmt.Fprintf(w, "thin: %v add up to %.2f of the epoch on %s, below 0.5\n", sep.shares, sum, wl.name)
	}
	for _, name := range sep.zero {
		if v := get(name); v != 0 {
			fmt.Fprintf(w, "leak: %s = %g on %s, expected 0\n", name, v, wl.name)
		}
	}
	for _, name := range sortedKeys(traced) {
		if v := get(name); strings.HasPrefix(name, "recon.") && v != 0 && (v < 0.5 || v > 2) {
			fmt.Fprintf(w, "unexplained: %s = %.2f on %s (predicted / measured self time)\n", name, v, wl.name)
		}
	}
	return failed
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is the set's own run-to-run variation as a share of its
// median: the interquartile range with four or more runs, the full
// range with fewer.
func spread(v []float64) float64 {
	if len(v) < 2 || median(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quantile(s, 0.25), quantile(s, 0.75)
	}
	return (hi - lo) / median(v)
}

// quantile interpolates linearly in a sorted slice.
func quantile(sorted []float64, p float64) float64 {
	x := p * float64(len(sorted)-1)
	i := int(x)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (x-float64(i))*(sorted[i+1]-sorted[i])
}

// Verdicts of a comparison.
const (
	same       = "same"
	better     = "better"
	worse      = "worse"
	unresolved = "unresolved"
)

// judge compares a metric's runs in set b against those in baseline a.
// The change is the move of the median in the bad direction as a share
// of a's median. When either set's own spread exceeds the bound the two
// cannot be told apart at that resolution: unresolved, not same.
func judge(a, b []float64, dir string, bound float64) (verdict string, change float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		change = (mb - ma) / ma
	}
	if dir == higher {
		change = -change
	}
	switch {
	case max(spread(a), spread(b)) > bound:
		return unresolved, change
	case change > bound:
		return worse, change
	case change < -bound:
		return better, change
	}
	return same, change
}

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per (workload, end-to-end metric) with
// both medians, the bound and the verdict, and reports whether any row
// is worse. A verification failure in b that a did not have is worse
// outright: failed_share has no tolerance.
func compareFiles(pathA, pathB string, force bool, w io.Writer) (anyWorse bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	if !reflect.DeepEqual(a.Fingerprint, b.Fingerprint) && !force {
		return false, fmt.Errorf("fingerprints differ (use -force to compare anyway):\n  %s: %+v\n  %s: %+v",
			pathA, a.Fingerprint, pathB, b.Fingerprint)
	}
	fmt.Fprintf(w, "%-12s %-20s %14s %14s %8s %8s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			return false, fmt.Errorf("workload %s missing from one of the files", wl.name)
		}
		for _, d := range endToEnd {
			va, vb := ra.EndToEnd[d.Name], rb.EndToEnd[d.Name]
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s/%s missing from one of the files", wl.name, d.Name)
			}
			v, change := judge(va, vb, d.Better, d.Bound)
			fmt.Fprintf(w, "%-12s %-20s %14.4f %14.4f %+7.2f%% %7.1f%%  %s\n",
				wl.name, d.Name, median(va), median(vb), 100*change, 100*d.Bound, v)
			anyWorse = anyWorse || v == worse
		}
		fa, fb := float64(ra.Failed)/float64(max(ra.Attempted, 1)), float64(rb.Failed)/float64(max(rb.Attempted, 1))
		v := same
		if fb > fa {
			v, anyWorse = worse, true
		} else if fb < fa {
			v = better
		}
		fmt.Fprintf(w, "%-12s %-20s %14.6f %14.6f %8s %8s  %s\n", wl.name, "failed_share", fa, fb, "", "0", v)
	}
	return anyWorse, nil
}
