// Command lotsbench regenerates the tables and figures of the LOTS
// paper's evaluation (§4) from this reproduction. Each experiment
// prints rows/series matching the paper's, using the deterministic
// simulated-time model (see DESIGN.md).
//
// Usage:
//
//	lotsbench -exp fig8 [-app me|lu|sor|rx|all] [-procs 2,4,8] [-platform p4]
//	lotsbench -exp overhead
//	lotsbench -exp checkcost
//	lotsbench -exp table1
//	lotsbench -exp maxspace [-full]
//	lotsbench -exp ablation-protocol | ablation-diff | ablation-evict | ablation-runbarrier
//	lotsbench -exp transport [-transport mem|udp|tcp] [-chaos seed] [-nodes 3]
//	lotsbench -exp viewcost [-nodes 3]
//	lotsbench -exp leasecost [-nodes 4]
//	lotsbench -exp recovery [-nodes 4]
//	lotsbench -exp multiproc [-app sor] [-nodes 4]
//	lotsbench -exp appmatrix [-nodes 4] [-chaos seed]
//	lotsbench -exp all
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	lots "repro"
	"repro/internal/harness"
	"repro/internal/platform"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig8, overhead, checkcost, table1, maxspace, ablation-protocol, ablation-diff, ablation-evict, ablation-runbarrier, transport, viewcost, leasecost, tracecost, recovery, multiproc, appmatrix, all")
	app := flag.String("app", "all", "fig8 application: me, lu, sor, rx, all")
	procsFlag := flag.String("procs", "2,4,8", "comma-separated process counts")
	platName := flag.String("platform", "p4", "platform profile: p4, p3rh62, p3rh90, xeon")
	full := flag.Bool("full", false, "maxspace: run the full 117.77 GB exhaustion (moves ~118 GB through the mapper)")
	transportName := flag.String("transport", "mem", "transport experiment interconnect: mem, udp, tcp")
	chaosSeed := flag.Int64("chaos", 0, "transport experiment: non-zero enables seeded fault injection with this seed")
	nodes := flag.Int("nodes", 3, "transport experiment cluster size")
	flag.Parse()

	prof, err := pickPlatform(*platName)
	if err != nil {
		fatal(err)
	}
	procs, err := parseProcs(*procsFlag)
	if err != nil {
		fatal(err)
	}

	start := time.Now()
	switch *exp {
	case "fig8":
		err = runFig8(*app, procs, prof)
	case "overhead":
		err = runOverhead(prof)
	case "checkcost":
		err = runCheckCost(prof)
	case "table1":
		err = runTable1()
	case "maxspace":
		err = runMaxSpace(*full)
	case "ablation-protocol", "ablation-diff", "ablation-evict", "ablation-runbarrier":
		err = runAblation(*exp, prof)
	case "transport":
		err = runTransportSmoke(*transportName, *chaosSeed, *nodes)
	case "viewcost":
		err = runViewCost(*nodes, prof)
	case "leasecost":
		err = runLeaseCost(*nodes, prof)
	case "tracecost":
		err = runTraceCost(*nodes, prof)
	case "recovery":
		err = runRecovery(*nodes)
	case "multiproc":
		err = runMultiproc(*app, *nodes)
	case "appmatrix":
		err = runAppMatrix(*nodes, *chaosSeed)
	case "all":
		for _, e := range []func() error{
			func() error { return runFig8("all", procs, prof) },
			func() error { return runOverhead(prof) },
			func() error { return runCheckCost(prof) },
			runTable1,
			func() error { return runMaxSpace(*full) },
			func() error { return runAblation("ablation-protocol", prof) },
			func() error { return runAblation("ablation-diff", prof) },
			func() error { return runAblation("ablation-evict", prof) },
			func() error { return runAblation("ablation-runbarrier", prof) },
			func() error { return runViewCost(*nodes, prof) },
			func() error { return runLeaseCost(*nodes, prof) },
			func() error { return runTraceCost(*nodes, prof) },
			func() error { return runRecovery(*nodes) },
		} {
			if err = e(); err != nil {
				break
			}
			fmt.Println()
		}
	default:
		err = fmt.Errorf("unknown experiment %q", *exp)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n(total wall time %v)\n", time.Since(start).Round(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lotsbench:", err)
	os.Exit(1)
}

func pickPlatform(name string) (platform.Profile, error) {
	switch name {
	case "p4":
		return platform.PIV2GFedora(), nil
	case "p3rh62":
		return platform.PIII733RH62(), nil
	case "p3rh90":
		return platform.PIII733RH90(), nil
	case "xeon":
		return platform.XeonSMP(), nil
	default:
		return platform.Profile{}, fmt.Errorf("unknown platform %q", name)
	}
}

func parseProcs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || p < 1 {
			return nil, fmt.Errorf("bad process count %q", part)
		}
		out = append(out, p)
	}
	return out, nil
}

// fig8Problems are the per-application problem-size sweeps (the paper
// uses "small problem sizes ... so that the programs could work on both
// JIAJIA and LOTS").
var fig8Problems = map[harness.AppName][]int{
	harness.AppME:  {16384, 65536, 262144},
	harness.AppLU:  {32, 64, 96},
	harness.AppSOR: {32, 64, 96},
	harness.AppRX:  {65536, 262144},
}

func runFig8(app string, procs []int, prof platform.Profile) error {
	var apps []harness.AppName
	switch strings.ToLower(app) {
	case "all":
		apps = harness.AllApps()
	case "me":
		apps = []harness.AppName{harness.AppME}
	case "lu":
		apps = []harness.AppName{harness.AppLU}
	case "sor":
		apps = []harness.AppName{harness.AppSOR}
	case "rx":
		apps = []harness.AppName{harness.AppRX}
	default:
		return fmt.Errorf("unknown app %q", app)
	}
	for _, a := range apps {
		pr := procs
		if a == harness.AppRX {
			// RX supports process counts dividing 8 (the paper shows
			// RX for p = 2, 4, 8 only).
			pr = filterDiv8(procs)
		}
		cells, err := harness.Fig8Sweep(a, fig8Problems[a], pr, prof)
		if err != nil {
			return err
		}
		harness.FormatFig8(os.Stdout, cells)
		fmt.Println()
	}
	return nil
}

func filterDiv8(procs []int) []int {
	var out []int
	for _, p := range procs {
		if p <= 8 && 8%p == 0 {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		out = []int{2, 4, 8}
	}
	return out
}

func runOverhead(prof platform.Profile) error {
	rows, err := harness.OverheadSweep(map[harness.AppName]int{
		harness.AppME:  65536,
		harness.AppLU:  64,
		harness.AppSOR: 64,
		harness.AppRX:  262144,
	}, 4, prof)
	if err != nil {
		return err
	}
	harness.FormatOverhead(os.Stdout, rows)
	return nil
}

func runCheckCost(prof platform.Profile) error {
	c, err := harness.MeasureCheckCost(128, 4, prof)
	if err != nil {
		return err
	}
	harness.FormatCheckCost(os.Stdout, c)
	return nil
}

func runTable1() error {
	var rows []harness.Table1Row
	for _, spec := range harness.PaperTable1Rows() {
		r, err := harness.RunTable1(spec)
		if err != nil {
			return err
		}
		rows = append(rows, r)
	}
	harness.FormatTable1(os.Stdout, rows)
	return nil
}

func runMaxSpace(full bool) error {
	var (
		res harness.MaxSpaceResult
		err error
	)
	if full {
		fmt.Println("maxspace: exhausting the full 117.77 GB (expect minutes of wall time)...")
		res, err = harness.RunMaxSpace(256 << 20)
	} else {
		res, err = harness.RunMaxSpaceWithCapacity(16<<20, platform.XeonSMP().DiskFreeBytes>>8)
		fmt.Println("maxspace: scaled 256x down (use -full for the paper-scale run)")
	}
	if err != nil {
		return err
	}
	harness.FormatMaxSpace(os.Stdout, res)
	return nil
}

// runTransportSmoke drives the mixed coherence protocol — lock-guarded
// migratory increments plus barrier reconciliation — over the selected
// interconnect, optionally under seeded fault injection, and verifies
// the final shared state. It is the command-line face of the
// cross-transport conformance matrix.
func runTransportSmoke(transportName string, chaosSeed int64, nodes int) error {
	cfg := lots.DefaultConfig(nodes)
	switch transportName {
	case "mem":
		cfg.Transport = lots.TransportMem
	case "udp":
		cfg.Transport = lots.TransportUDP
	case "tcp":
		cfg.Transport = lots.TransportTCP
	default:
		return fmt.Errorf("unknown transport %q (want mem, udp, tcp)", transportName)
	}
	var chaosStats *lots.ChaosStats
	if chaosSeed != 0 {
		cc := lots.DefaultChaos(chaosSeed)
		chaosStats = &lots.ChaosStats{}
		cc.Stats = chaosStats
		cfg.Chaos = &cc
	}
	c, err := lots.NewCluster(cfg)
	if err != nil {
		return err
	}
	defer c.Close()

	const rounds = 8
	const words = 64
	start := time.Now()
	err = c.Run(func(n *lots.Node) {
		arr := lots.Alloc[int32](n, words)
		n.Barrier()
		for r := 0; r < rounds; r++ {
			n.Acquire(3)
			for i := 0; i < words; i++ {
				arr.Set(i, arr.Get(i)+1)
			}
			n.Release(3)
		}
		n.Barrier()
		want := int32(rounds * n.N())
		for i := 0; i < words; i++ {
			if got := arr.Get(i); got != want {
				panic(fmt.Sprintf("node %d: arr[%d] = %d, want %d", n.ID(), i, got, want))
			}
		}
		n.Barrier()
	})
	if err != nil {
		return err
	}
	wall := time.Since(start)
	total := c.Total()
	fmt.Printf("Transport smoke — %s%s, %d nodes, %d lock rounds\n",
		transportName, map[bool]string{true: "+chaos", false: ""}[chaosSeed != 0], nodes, rounds)
	fmt.Printf("  verified: every node sees %d in all %d words\n", rounds*nodes, words)
	fmt.Printf("  msgs=%d frags=%d bytes=%d wall=%v\n",
		total.MsgsSent, total.FragsSent, total.BytesSent, wall.Round(time.Millisecond))
	if chaosStats != nil {
		fmt.Printf("  faults injected: drop=%d dup=%d reorder=%d delay=%d partition=%d connkill=%d\n",
			chaosStats.Dropped.Load(), chaosStats.Duplicated.Load(), chaosStats.Reordered.Load(),
			chaosStats.Delayed.Load(), chaosStats.Partition.Load(), chaosStats.ConnKills.Load())
	}
	return nil
}

// runViewCost compares element-wise Ptr access with the pinned
// zero-copy View API on an identical striped workload, and self-asserts
// the redesign's bar so CI catches an access-path regression: span
// views must be at least 3x better in both simulated time and access
// checks, and the two sides must agree element-for-element.
func runViewCost(nodes int, prof platform.Profile) error {
	const (
		words    = 8192
		rounds   = 4
		passes   = 64
		minRatio = 3.0
	)
	if nodes < 2 {
		nodes = 2
	}
	res, err := harness.ViewCost(words, rounds, passes, nodes, prof)
	if err != nil {
		return err
	}
	harness.FormatViewCost(os.Stdout, res)
	return res.Assert(minRatio)
}

// runLeaseCost compares the paper's invalidate-at-barrier protocol
// with lease-based revalidation on an identical read-mostly
// re-publication workload, and self-asserts the subsystem's bar so CI
// catches a coherence regression: at least 3x fewer fetch round-trips,
// live lease hits AND demotes, and byte-identical final state.
func runLeaseCost(nodes int, prof platform.Profile) error {
	const (
		rows     = 8
		words    = 256
		rounds   = 10
		minRatio = 3.0
	)
	if nodes < 2 {
		nodes = 4
	}
	res, err := harness.LeaseCost(rows, words, rounds, nodes, prof)
	if err != nil {
		return err
	}
	harness.FormatLeaseCost(os.Stdout, res)
	return res.Assert(minRatio)
}

// runTraceCost prices causal tracing and self-asserts it is a pure
// observer: byte-identical final state, identical simulated time and
// message count with tracing on vs off, a zero-alloc disabled path,
// and bounded traced-run overhead (see TraceCostResult.Assert).
func runTraceCost(nodes int, prof platform.Profile) error {
	const (
		rounds = 8
		words  = 64
	)
	if nodes < 2 {
		nodes = 4
	}
	res, err := harness.TraceCost(nodes, rounds, words, prof)
	if err != nil {
		return err
	}
	harness.FormatTraceCost(os.Stdout, res)
	return nil
}

// runMultiproc deploys the cluster as real OS processes — one
// cmd/lotsnode per rank — over BOTH socket transports, and
// self-asserts that every process's final shared-state digest is
// byte-identical to the in-process mem-transport run of the same
// seed. This is the acceptance face of the multi-process deployment:
// the wire must carry ALL state across a real process boundary.
func runMultiproc(app string, nodes int) error {
	if app == "" || app == "all" {
		app = "sor"
	}
	appName, err := harness.ParseApp(app)
	if err != nil {
		return err
	}
	if nodes < 4 {
		nodes = 4 // the deployment claim is about real process fan-out
	}
	problem := 32
	if appName == harness.AppME || appName == harness.AppRX {
		problem = 16384
	}
	dir, err := os.MkdirTemp("", "lotsnode-bin-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bin, err := harness.BuildLotsnode(dir)
	if err != nil {
		return err
	}
	for _, kind := range []lots.TransportKind{lots.TransportUDP, lots.TransportTCP} {
		start := time.Now()
		res, err := harness.RunMultiproc(harness.MultiprocSpec{
			App: appName, Problem: problem, Procs: nodes, Seed: 42,
			Transport: kind, NodeBin: bin,
		})
		if err != nil {
			return err
		}
		var msgs, bytes int64
		for _, nr := range res.Nodes {
			msgs += nr.Msgs
			bytes += nr.Bytes
		}
		fmt.Printf("Multi-process — %d lotsnode processes over %v, app=%s problem=%d\n", nodes, kind, appName, problem)
		fmt.Printf("  digest %s.. identical on all %d processes and vs the in-process mem run\n",
			res.Digest[:16], nodes)
		fmt.Printf("  msgs=%d bytes=%d wall=%v\n", msgs, bytes, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// runRecovery proves the checkpoint/recovery subsystem end to end: a
// fleet running the checkpointed epoch workload loses one rank
// mid-epoch, and a gang restart must resume from the newest commonly
// restorable checkpoint and finish with final state byte-identical to
// an uninterrupted run of the plain protocol. Three cells, each
// self-asserting: an intact-store restart, a restart with the dead
// rank's store wiped (the buddy replica must re-home every lost
// object), and a degraded continue on N-1 ranks.
func runRecovery(nodes int) error {
	if nodes < 4 {
		nodes = 4 // the claim is a 4-rank fleet surviving one death
	}
	base := harness.RecoverySpec{
		Procs: nodes, Rows: 4, Words: 16 * nodes, Epochs: 6,
		KillRank: nodes / 2, KillEpoch: 3,
	}
	cells := []struct {
		name   string
		mutate func(*harness.RecoverySpec)
	}{
		{"intact restart", func(*harness.RecoverySpec) {}},
		{"wiped store", func(s *harness.RecoverySpec) { s.WipeKilled = true }},
		{"degraded continue", func(s *harness.RecoverySpec) { s.Degraded = true }},
	}
	for _, cell := range cells {
		spec := base
		cell.mutate(&spec)
		res, err := harness.RecoveryCost(spec)
		if err != nil {
			return fmt.Errorf("recovery (%s): %w", cell.name, err)
		}
		harness.FormatRecovery(os.Stdout, res)
		if err := res.Assert(); err != nil {
			return fmt.Errorf("recovery (%s): %w", cell.name, err)
		}
		fmt.Println()
	}
	return nil
}

// runAppMatrix pushes the full Fig. 8 application suite through the
// {mem, udp, tcp} x {clean, chaos} conformance cells (the nightly CI
// job; heavier than the PR-path suites).
func runAppMatrix(nodes int, chaosSeed int64) error {
	if nodes < 2 || nodes == 3 {
		// The shared -nodes default (3) does not divide RX's bucket
		// structure; the appmatrix default is 4 processes.
		nodes = 4
	}
	if 8%nodes != 0 || 256%nodes != 0 {
		return fmt.Errorf("appmatrix: process count %d must divide 8 and 256 (RX)", nodes)
	}
	return harness.RunAppMatrix(os.Stdout, harness.DefaultAppMatrix(nodes), harness.AppCells(), chaosSeed)
}

func runAblation(which string, prof platform.Profile) error {
	var (
		rows  []harness.AblationRow
		err   error
		title string
	)
	switch which {
	case "ablation-protocol":
		title = "Ablation — mixed coherence protocol vs pure variants (§3.4)"
		rows, err = harness.AblationProtocol(4, prof)
	case "ablation-diff":
		title = "Ablation — per-field timestamps vs accumulated diff chains (§3.5, Figure 7)"
		rows, err = harness.AblationDiff(4, prof)
	case "ablation-evict":
		title = "Ablation — LRU+pinning vs FIFO eviction (§3.3)"
		rows, err = harness.AblationEvict(prof)
	case "ablation-runbarrier":
		title = "Ablation — run_barrier vs full barrier (§3.6)"
		rows, err = harness.AblationRunBarrier(4, prof)
	}
	if err != nil {
		return err
	}
	harness.FormatAblation(os.Stdout, title, rows)
	return nil
}
