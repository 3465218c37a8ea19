// Command lotsbench regenerates the tables and figures of the LOTS
// paper's evaluation (§4) from this reproduction, and nothing else.
// Each experiment prints rows/series matching the paper's, using the
// deterministic simulated-time model (see DESIGN.md). The bars our own
// extensions must hold are tests, not experiments: the transport
// conformance matrix (TestProtocolConformanceMatrix), views
// (TestViewCostSelfAsserts), leases (TestLeaseCostSelfAsserts), tracing
// (TestTraceCostSelfAsserts), recovery (TestRecovery*), and the
// multi-process deployment (TestMultiproc*, or cmd/lotslaunch by hand).
//
// Usage:
//
//	lotsbench -exp fig8 [-app me|lu|sor|rx|all] [-procs 2,4,8] [-platform p4]
//	lotsbench -exp overhead
//	lotsbench -exp checkcost
//	lotsbench -exp table1
//	lotsbench -exp maxspace [-full]
//	lotsbench -exp ablation-protocol | ablation-diff | ablation-evict | ablation-runbarrier
//	lotsbench -exp appmatrix [-nodes 4] [-chaos seed]
//	lotsbench -exp all
//
// -exp all runs the nine paper experiments above appmatrix; appmatrix
// (the Fig. 8 suite over {mem, udp, tcp} x {clean, chaos}) is the
// nightly CI job.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/platform"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig8, overhead, checkcost, table1, maxspace, ablation-protocol, ablation-diff, ablation-evict, ablation-runbarrier, appmatrix, all")
	app := flag.String("app", "all", "fig8 application: me, lu, sor, rx, all")
	procsFlag := flag.String("procs", "2,4,8", "comma-separated process counts")
	platName := flag.String("platform", "p4", "platform profile: p4, p3rh62, p3rh90, xeon")
	full := flag.Bool("full", false, "maxspace: run the full 117.77 GB exhaustion (moves ~118 GB through the mapper)")
	chaosSeed := flag.Int64("chaos", 0, "appmatrix: seed for the inputs and the chaos cells' fault injection (0 = 42)")
	nodes := flag.Int("nodes", 4, "appmatrix: process count (must divide 8 and 256, for RX)")
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
	apps := harness.AllApps()
	if app != "all" {
		a, err := harness.ParseApp(app)
		if err != nil {
			return err
		}
		apps = []harness.AppName{a}
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

// runAppMatrix pushes the full Fig. 8 application suite through the
// {mem, udp, tcp} x {clean, chaos} conformance cells (the nightly CI
// job; heavier than the PR-path suites).
func runAppMatrix(nodes int, chaosSeed int64) error {
	if nodes < 2 || 8%nodes != 0 || 256%nodes != 0 {
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
