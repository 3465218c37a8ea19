package harness

// Multi-process launcher: spawn one cmd/lotsnode OS process per node
// on localhost UDP/TCP ports, coordinate bring-up over the control
// protocol (hello -> peers -> ready -> digest), run a Fig. 8 app to
// completion, and assert the final shared-state digest is byte-
// identical on every process AND identical to an in-process
// mem-transport run of the same seed. Crossing a real process
// boundary is what proves the wire codec and flow control carry ALL
// state: an in-process run could leak state through shared memory; a
// lotsnode process cannot.
//
// Failure is first-class: a node process that dies or goes silent is
// reported as a *PeerDeathError naming the rank and the bring-up
// phase it died in, never as a hang — the launcher's whole run sits
// under one deadline. The process handling itself is fleet.go's; this
// file is the application run's script over it.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	lots "repro"
	"repro/internal/apps"
	"repro/internal/wire"
)

// ParseApp resolves an application name, in either case.
func ParseApp(s string) (AppName, error) {
	if a := AppName(strings.ToUpper(s)); slices.Contains(AllApps(), a) {
		return a, nil
	}
	return "", fmt.Errorf("harness: unknown app %q (want me, lu, sor, rx)", s)
}

// RunAppDigest runs one Fig. 8 application on backend b and returns
// this node's simulated compute time plus the canonical digest of the
// final shared state. Every deployment mode (in-process, one process
// per node) digests through this single function, so digest equality
// means protocol equality, not formatting luck.
func RunAppDigest(b apps.Backend, app AppName, problem, sorIters int, seed int64) (time.Duration, string) {
	var (
		d   time.Duration
		dig string
	)
	switch app {
	case AppME:
		d, dig = apps.MergeSortDigest(b, apps.MergeSortConfig{Keys: problem, Seed: seed})
	case AppLU:
		d, dig = apps.LUDigest(b, apps.LUConfig{N: problem, Seed: seed})
	case AppSOR:
		d, dig = apps.SORDigest(b, apps.SORConfig{N: problem, Iters: sorIters})
	case AppRX:
		d, dig = apps.RadixDigest(b, apps.RadixConfig{Keys: problem, KeyBits: 16, Seed: seed})
	default:
		panic(fmt.Sprintf("harness: unknown app %q", app))
	}
	// Leave barrier: in a multi-process deployment a rank that returns
	// is free to EXIT ITS PROCESS, after which it can no longer serve
	// object fetches — and digesting reads peers' objects. No rank may
	// leave until every rank has finished digesting.
	b.RunBarrier()
	return d, dig
}

// MultiprocSpec describes one multi-process application launch.
type MultiprocSpec struct {
	FleetSpec

	App      AppName
	Problem  int
	SORIters int   // AppSOR only (0 = 4)
	Seed     int64 // deterministic input (0 = 42)

	// RemoteSwap gives rank 0 a deliberately tiny DMM area and local
	// disk and points its overflow at rank 1's disk, so the run
	// exercises the remote-swap extension across a real process
	// boundary. The node self-asserts that at least one spill
	// happened; digests must still match the mem run.
	RemoteSwap bool

	// MetricsBase, when > 0, gives rank i a Prometheus endpoint on
	// 127.0.0.1:(MetricsBase+i). The launcher probes each endpoint
	// mid-run, scrapes it after the digests land (ranks hold their
	// process open until stdin EOF for exactly this), verifies the full
	// counter+phase inventory, and persists each rank's final scrape to
	// LogDir/node-<i>.stats.
	MetricsBase int

	// StatsInterval, when > 0, has every rank stream a CtrlStats frame
	// at this period; OnStats (if set) observes each one — the feed
	// behind lotslaunch -watch.
	StatsInterval time.Duration
	OnStats       func(node int, c wire.Ctrl)

	// Kill, when true, kills rank KillNode's process right after the
	// readiness handshake — the peer-death regression hook. The
	// launcher must then report a *PeerDeathError for that rank.
	Kill     bool
	KillNode int

	// Trace, when true, runs every rank with causal protocol tracing:
	// each rank exports node-<i>.trace.json into LogDir, the launcher
	// aligns the per-rank clocks via the ready round trip and merges
	// them into fleet.trace.json with a per-barrier straggler report.
	// On a casualty the launcher SIGQUITs the survivors and lifts the
	// flight-recorder tail out of the logs into the PeerDeathError.
	Trace bool
}

// NodeReport is one process's outcome.
type NodeReport struct {
	Node    int
	Digest  string
	Msgs    int64
	Bytes   int64
	LogPath string

	// MetricsAddr and StatsPath are set when the spec enabled metrics:
	// the rank's scrape endpoint and the file its final scrape was
	// persisted to.
	MetricsAddr string
	StatsPath   string
}

// MultiprocResult is a successful launch's outcome.
type MultiprocResult struct {
	Digest    string // the digest all processes agreed on
	MemDigest string // the in-process mem-transport run's digest
	Nodes     []NodeReport
	Wall      time.Duration
	LogDir    string // where per-node logs (and stats artifacts) landed

	// Trace holds the merged fleet timeline and straggler attribution
	// when the spec enabled tracing.
	Trace *TraceReport
}

// DigestMismatchError reports final shared state that differed — the
// multi-process conformance failure (across processes, or against the
// in-process mem reference run).
type DigestMismatchError struct{ Detail string }

func (e *DigestMismatchError) Error() string { return "harness: digest mismatch: " + e.Detail }

// PeerDeathError reports a node process that died (or went silent past
// the deadline) during a multi-process run: the distinct exit path for
// "peer process died mid-barrier".
type PeerDeathError struct {
	Node  int
	Phase string // "hello", "ready", "run"
	Cause error

	// FlightTail is the flight-recorder block lifted from rank
	// FlightNode's log on a traced run: the last protocol events before
	// the death, dumped by the casualty itself (runtime failures) or by
	// a SIGQUITed survivor (the casualty was SIGKILLed and could not
	// dump). Empty when tracing was off or no rank managed a dump.
	FlightTail string
	FlightNode int
}

func (e *PeerDeathError) Error() string {
	return fmt.Sprintf("harness: node %d died in phase %q: %v", e.Node, e.Phase, e.Cause)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *PeerDeathError) Unwrap() error { return e.Cause }

// metricsAddr is rank's /metrics endpoint ("" = metrics off).
func (spec MultiprocSpec) metricsAddr(rank int) string {
	if spec.MetricsBase == 0 {
		return ""
	}
	return fmt.Sprintf("127.0.0.1:%d", spec.MetricsBase+rank)
}

// appArgs is what an application run adds to a rank's fleet argv.
func (spec MultiprocSpec) appArgs(rank int) []string {
	args := []string{
		"-app", strings.ToLower(string(spec.App)),
		"-problem", strconv.Itoa(spec.Problem),
		"-sor-iters", strconv.Itoa(spec.SORIters),
		"-seed", strconv.FormatInt(spec.Seed, 10),
	}
	if spec.RemoteSwap && rank == 0 {
		// Rank 0 gets a 4 KB DMM area and a 1 KB local disk: eviction
		// churn is guaranteed and the disk fills almost immediately, so
		// the overflow must take the remote path to rank 1.
		args = append(args, "-remote-swap", "-dmm", "4096", "-disk", "1024")
	}
	if addr := spec.metricsAddr(rank); addr != "" {
		args = append(args, "-metrics", addr)
	}
	if spec.StatsInterval > 0 {
		args = append(args, "-stats-interval", spec.StatsInterval.String())
	}
	if spec.Trace {
		args = append(args, "-trace", filepath.Join(spec.LogDir, fmt.Sprintf("node-%d.trace.json", rank)))
	}
	return args
}

// RunMultiproc performs one full multi-process launch; see the package
// comment for the protocol. On success every process exited 0 with
// identical digests matching the in-process mem run.
func RunMultiproc(spec MultiprocSpec) (res MultiprocResult, err error) {
	if spec.Kill && (spec.KillNode < 0 || spec.KillNode >= spec.Procs) {
		return res, fmt.Errorf("harness: KillNode %d out of range for %d processes", spec.KillNode, spec.Procs)
	}
	if spec.SORIters == 0 {
		spec.SORIters = 4
	}
	if spec.Seed == 0 {
		spec.Seed = 42
	}
	cleanup, err := spec.resolve()
	if err != nil {
		return res, err
	}
	// A launcher-owned temp log dir is kept on failure for post-mortem,
	// and removed on success — unless the run persisted per-rank stats
	// or trace artifacts, which are the point.
	defer func() { cleanup(err == nil && spec.MetricsBase == 0 && !spec.Trace) }()
	res.LogDir = spec.LogDir

	start := time.Now()
	f, err := spec.launch(spec.appArgs)
	if err != nil {
		return res, err
	}
	defer f.reap() //nolint:errcheck // best-effort teardown
	if spec.Trace {
		// Registered after the teardown defer, so it runs first (LIFO):
		// the survivors are still alive to answer the SIGQUIT.
		defer func() {
			var pd *PeerDeathError
			if errors.As(err, &pd) && pd.FlightTail == "" {
				attachFlightTail(f.procs, pd)
			}
		}()
	}
	if spec.OnStats != nil {
		for _, p := range f.procs {
			p.onStats = func(c wire.Ctrl) { spec.OnStats(p.id, c) }
		}
	}
	offsetNS, err := f.bringUp()
	if err != nil {
		return res, err
	}

	// Mid-run reachability probe: every rank's metrics endpoint must
	// answer while the fleet is live. (Ranks with -metrics also hold
	// their process open after the digest until stdin EOF, so a fast
	// application cannot race this probe into a dead endpoint.)
	if spec.MetricsBase > 0 {
		for i := range f.procs {
			if _, _, err := ScrapeMetrics(spec.metricsAddr(i)); err != nil {
				return res, fmt.Errorf("harness: mid-run metrics probe, rank %d: %w", i, err)
			}
		}
	}

	if spec.Kill {
		if err := f.kill(spec.KillNode); err != nil {
			return res, err
		}
	}

	// The application runs; every node reports its digest.
	digests, _, err := f.collect(wire.CtrlDigest, "run")
	if err != nil {
		return res, err
	}
	res.Nodes = make([]NodeReport, spec.Procs)
	for i, c := range digests {
		res.Nodes[i] = NodeReport{Node: i, Digest: c.Digest, Msgs: c.Msgs, Bytes: c.Bytes,
			LogPath: f.procs[i].logPath, MetricsAddr: spec.metricsAddr(i)}
	}

	// Final scrape: the digests are in but every rank still holds its
	// process (stdin not yet closed), so the endpoints reflect the
	// complete run. Verify the full counter+phase inventory per rank
	// and persist each scrape next to the logs as node-<i>.stats.
	if spec.MetricsBase > 0 {
		var fleetFetchServes int64
		for i := range f.procs {
			m, body, err := ScrapeMetrics(spec.metricsAddr(i))
			if err != nil {
				return res, fmt.Errorf("harness: final metrics scrape, rank %d: %w", i, err)
			}
			if err := VerifyRankMetrics(m, i, true); err != nil {
				return res, err
			}
			statsPath := filepath.Join(spec.LogDir, fmt.Sprintf("node-%d.stats", i))
			if err := os.WriteFile(statsPath, body, 0o644); err != nil {
				return res, err
			}
			res.Nodes[i].StatsPath = statsPath
			fleetFetchServes += m[fmt.Sprintf("lots_phase_events_total{node=\"%d\",phase=\"fetch_serve\"}", i)]
		}
		// Fleet-wide sanity: somebody must have served object fetches —
		// zero across every rank means the phase hooks regressed, since
		// every Fig. 8 workload faults remote objects in.
		if fleetFetchServes == 0 {
			return res, errors.New("harness: no rank recorded a fetch_serve phase event")
		}
	}

	if err := f.finish(); err != nil {
		return res, err
	}
	res.Wall = time.Since(start)

	// Merge the per-rank trace files onto the launcher's clock. Every
	// rank exported its file before writing its digest frame, and every
	// process has exited, so the files are complete.
	if spec.Trace {
		report, err := MergeTraces(spec.LogDir, spec.Procs, offsetNS)
		if err != nil {
			return res, fmt.Errorf("harness: merging traces: %w", err)
		}
		res.Trace = &report
	}

	// Cross-process congruence: every rank digested the same bytes.
	res.Digest = res.Nodes[0].Digest
	for _, nr := range res.Nodes[1:] {
		if nr.Digest != res.Digest {
			return res, &DigestMismatchError{Detail: fmt.Sprintf("across processes: node %d %s vs node 0 %s",
				nr.Node, nr.Digest, res.Digest)}
		}
	}

	// Cross-deployment congruence: the in-process mem-transport run of
	// the same seed must produce byte-identical final state.
	mem, err := MemDigest(spec)
	if err != nil {
		return res, fmt.Errorf("harness: in-process reference run: %w", err)
	}
	res.MemDigest = mem
	if mem != res.Digest {
		return res, &DigestMismatchError{Detail: fmt.Sprintf("multi-process digest %s != in-process mem digest %s (state leaked outside the wire?)",
			res.Digest, mem)}
	}
	return res, nil
}

// MemDigest runs the spec's application in-process over the mem
// transport — the reference the multi-process run must match — and
// returns the digest all nodes agreed on.
func MemDigest(spec MultiprocSpec) (string, error) {
	cfg := lots.DefaultConfig(spec.Procs)
	c, err := lots.NewCluster(cfg)
	if err != nil {
		return "", err
	}
	defer c.Close()
	digests := make([]string, spec.Procs)
	var mu sync.Mutex
	err = c.Run(func(n *lots.Node) {
		_, d := RunAppDigest(apps.NewLotsBackend(n), spec.App, spec.Problem, spec.SORIters, spec.Seed)
		mu.Lock()
		digests[n.ID()] = d
		mu.Unlock()
	})
	if err != nil {
		return "", err
	}
	for i := 1; i < spec.Procs; i++ {
		if digests[i] != digests[0] {
			return "", fmt.Errorf("mem run digest mismatch: node %d %s vs node 0 %s", i, digests[i], digests[0])
		}
	}
	return digests[0], nil
}
