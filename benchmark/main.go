// Command benchmark measures the LOTS runtime on the machine's real
// clock: four closed-loop SPMD workloads against the public lots API
// give the end-to-end metrics, isolated cells time each layer through
// its public functions, and a traced pass reconciles the two. See
// README.md beside this file.
//
//	go run ./benchmark                     every workload, in child processes; writes benchmark/out/results.json
//	go run ./benchmark -workload stencil   one untraced run: the end-to-end metrics
//	go run ./benchmark -workload stencil -trace 1   one traced run plus the cells: the per-layer metrics
//	go run ./benchmark -cells              the isolated cells alone
//	go run ./benchmark -workload stencil -setup     one set-up: the seconds it took
//	go run ./benchmark -compare A.json B.json
//
// The last line a -workload run prints is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// outDir holds everything a run leaves behind (git-ignored): spill
// files while a run lasts, span files, the results file.
const outDir = "benchmark/out"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (stencil, multiwriter, lockstep, outofcore) in this process")
	seed := fs.Int64("seed", 1, "seed of the generated inputs: written values, lock choice, sparse offsets")
	seconds := fs.Float64("seconds", 20, "length of a steady window, in seconds")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run plus cells, per-layer metrics")
	onlyCells := fs.Bool("cells", false, "run only the isolated cells")
	onlySetUp := fs.Bool("setup", false, "with -workload: set it up once, print the seconds that took, and exit")
	compare := fs.Bool("compare", false, "compare two results files: -compare A.json B.json")
	force := fs.Bool("force", false, "with -compare: compare files whose machine fingerprints differ")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	runtime.GOMAXPROCS(hostProcs())
	sz := defaultSizes()
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(errors.New("-compare needs two results files"))
		}
		worse, err := compareFiles(fs.Arg(0), fs.Arg(1), *force, stdout)
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	case *onlyCells:
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return fail(err)
		}
		c, err := cellsIn(sz, outDir)
		if err != nil {
			return fail(err)
		}
		printValues(stdout, cellDefs, c, nil)
		return 0
	case *name == "":
		failed, err := runEverything(sz, *seed, *seconds, stdout, stderr)
		if err != nil {
			return fail(err)
		}
		if failed {
			return 1
		}
		return 0
	}
	wl := findWorkload(*name)
	if wl == nil {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(err)
	}
	if *onlySetUp {
		d, err := timeOneSetUp(wl, sz, *seed, outDir)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%.9f\n", d)
		return 0
	}
	hostWarmUp()
	res, err := runOne(runConfig{wl: wl, sz: sz, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, outDir: outDir,
		timeSetUp: func() (float64, error) { return setUpInChild(stderr, wl.name, *seed) }}, stdout)
	if err != nil {
		return fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return exitCode(res)
}

// exitCode is non-zero for a run whose outputs did not verify.
func exitCode(res result) int {
	if res.Correct {
		return 0
	}
	return 1
}

// result is the last line of a -workload run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runConfig is one run of one workload in this process.
type runConfig struct {
	wl        *workload
	sz        sizes
	seed      int64
	window    time.Duration // steady window length
	maxEpochs int           // when > 0, windows run exactly this many epochs instead (tests)
	traced    bool
	corrupt   bool // overwrite one shared word before verifying (tests): the run must fail
	outDir    string
	// timeSetUp sets the workload up once more and returns the seconds
	// that took. The command does it in a process of its own
	// (setUpInChild); the tests, whose binary is not the command, in
	// theirs.
	timeSetUp func() (float64, error)
}

func runOne(rc runConfig, log io.Writer) (result, error) {
	if rc.traced {
		return runTraced(rc, log)
	}
	setups, err := rc.timeSetUps()
	if err != nil {
		return result{}, err
	}
	s, _, err := setUp(rc.wl, rc.sz, rc.seed, rc.outDir)
	if err != nil {
		return result{}, err
	}
	defer s.close()
	w, err := s.runWindow(rc.window, rc.maxEpochs, false)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "# %s seed %d: %d epochs in %.2f s; host calibration %.2f ms\n",
		rc.wl.name, rc.seed, w.epochs, w.wall.Seconds(), w.calibMS)
	rss := peakRSSMiB() // before verification, whose reference copies are not the runtime's
	v := s.verify(rc.corrupt)
	s.close()
	more, err := rc.timeSetUps()
	if err != nil {
		return result{}, err
	}
	setups = append(setups, more...)
	sort.Float64s(setups)
	m := endToEndMetrics(w, setups[int(quiet*float64(len(setups)))], rss)
	printValues(log, endToEnd, m, map[string]int{
		"setup_s":              len(setups),
		"epochs_per_s":         w.epochs,
		"epoch_ms_p10":         w.epochs * w.ranks,
		"cpu_ms_per_epoch_p10": w.epochs,
	})
	return finish(endToEnd, m, v)
}

// runTraced is the per-layer run: a short untraced reference window, a
// traced window on the same cluster, then the isolated cells. Spans go
// to <outDir>/<workload>.trace.json.
func runTraced(rc runConfig, log io.Writer) (result, error) {
	s, _, err := setUp(rc.wl, rc.sz, rc.seed, rc.outDir)
	if err != nil {
		return result{}, err
	}
	defer s.close()
	ref, err := s.runWindow(rc.window/4, rc.maxEpochs, false)
	if err != nil {
		return result{}, err
	}
	w, err := s.runWindow(rc.window/2, rc.maxEpochs, true)
	if err != nil {
		return result{}, err
	}
	v := s.verify(rc.corrupt)
	s.close() // the cells want the cores and the memory to themselves

	c, err := cellsIn(rc.sz, rc.outDir)
	if err != nil {
		return result{}, err
	}
	perRank := w.spans()
	st := foldSpans(w, perRank)
	m := tracedMetrics(rc.wl, rc.sz, w, ref, st, c)
	for k, x := range c {
		m[k] = x
	}
	m["host.calib_ms"] = w.calibMS
	if err := writeTrace(filepath.Join(rc.outDir, rc.wl.name+".trace.json"), perRank, rc.wl.phases); err != nil {
		return result{}, err
	}
	syncCalls := 0
	for _, r := range ref.recs {
		syncCalls += len(r.syncNS)
	}
	printValues(log, perLayer, m, map[string]int{
		"sync.call_us_p10":     syncCalls,
		"fetch.fault_us_p50":   len(st.dur[kFault]),
		"fetch.fault_us_tail":  len(st.dur[kFault]),
		"barrier.call_ms_p50":  len(st.dur[kBarrier]) + len(st.dur[kRunBarrier]),
		"barrier.call_ms_tail": len(st.dur[kBarrier]) + len(st.dur[kRunBarrier]),
		"lock.acquire_us_tail": len(st.dur[kAcquire]),
		"lock.release_us_p50":  len(st.dur[kUnlock]),
	})
	return finish(perLayer, m, v)
}

// cellsIn runs the isolated cells with a scratch directory under dir.
func cellsIn(sz sizes, dir string) (cells, error) {
	tmp, err := os.MkdirTemp(dir, "tmp-cells-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	return runCells(sz, tmp)
}

func finish(defs []metric, m map[string]float64, v verification) (result, error) {
	vals, err := report(defs, m)
	if err != nil {
		return result{}, err
	}
	return result{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: vals}, nil
}

// printValues prints one line per measured metric of defs: name, value,
// unit and, for a timing, its sample count. A tail names the percentile
// its sample count allowed.
func printValues(w io.Writer, defs []metric, m map[string]float64, samples map[string]int) {
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-34s %14.4f %-6s", d.Name, v, d.Unit)
		if n, ok := samples[d.Name]; ok {
			fmt.Fprintf(w, " n=%d", n)
			if strings.HasSuffix(d.Name, "_tail") {
				_, label := tailPercentile(n)
				fmt.Fprintf(w, " (%s)", label)
			}
		}
		fmt.Fprintln(w)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
