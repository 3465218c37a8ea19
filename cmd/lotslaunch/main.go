// Command lotslaunch deploys a LOTS cluster as real OS processes: it
// spawns one cmd/lotsnode per rank on localhost, coordinates the
// hello/peers/ready bring-up over the control protocol, runs a Fig. 8
// application to completion, collects every process's final
// shared-state digest and stats, and asserts the digests are
// byte-identical — across the processes AND against an in-process
// mem-transport run of the same seed. It is the congruence check that
// proves the wire carries all state.
//
//	lotslaunch -nodes 4 -transport udp -app sor -problem 32
//	lotslaunch -nodes 4 -transport both -app me -problem 16384
//
// The fleet need not live on localhost. -spawner ssh places rank i on
// the i'th -hosts entry (round-robin) with the node binary at
// -ssh-bin; -spawner wrap prefixes every rank's command with -wrap
// (%r substitutes the rank — e.g. "ip netns exec rank%r" for a
// network-namespace fleet). The control protocol rides the child's
// stdin/stdout either way, so the bring-up is identical. -tls has the
// launcher act as a fleet CA and issue one certificate per rank
// (TCP only); -metrics-base N exposes rank i's Prometheus endpoint on
// 127.0.0.1:(N+i), scraped and verified after the run; -watch streams
// per-rank stats into a live fleet table:
//
//	lotslaunch -nodes 4 -transport tcp -spawner ssh -hosts h1,h2 \
//	    -ssh-bin /opt/lots/lotsnode -tls -metrics-base 9300 -watch
//
// With -kill-rank the launcher runs the kill-and-relaunch recovery
// deployment instead of a Fig. 8 app: the fleet runs the checkpointed
// recovery epoch workload, the named rank is SIGKILLed mid-epoch at
// -kill-epoch, the survivors are torn down, and a gang relaunch with
// -recover must resume from the checkpoints and finish with digests
// byte-identical to an uninterrupted in-process run (-app and -seed
// are ignored in this mode; -problem sets words per row). Both
// generations go through the same fleet path as an app run, so
// -kill-rank combines with -spawner, -tls and -chaos; the flags that
// observe an app run (-metrics-base, -stats-interval, -watch, -trace)
// are refused:
//
//	lotslaunch -nodes 4 -transport udp -kill-rank 2 -kill-epoch 3
//	lotslaunch -nodes 4 -transport tcp -kill-rank 2 -tls -spawner wrap -wrap 'env LOTS_RANK=%r'
//
// Exit codes:
//
//	0  success (all digests byte-identical)
//	1  launch/configuration failure
//	3  a node process died (the error names the rank and phase)
//	4  digest mismatch
//
// Per-node stderr logs land in -logdir (kept on failure; CI uploads
// them as artifacts).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	lots "repro"
	"repro/internal/harness"
)

func main() {
	var (
		nodes     = flag.Int("nodes", 4, "number of node processes to spawn")
		transport = flag.String("transport", "udp", "interconnect: udp, tcp, or both")
		app       = flag.String("app", "sor", "application: me, lu, sor, rx")
		problem   = flag.Int("problem", 32, "problem size (me/rx: keys; lu/sor: matrix dimension)")
		sorIters  = flag.Int("sor-iters", 4, "sor: red-black iteration pairs")
		seed      = flag.Int64("seed", 42, "deterministic input seed")
		chaosSeed = flag.Int64("chaos", 0, "non-zero enables seeded fault injection in every node process (per-rank schedules via RankChaosSeed; digests must still match the clean mem run)")
		remote    = flag.Bool("remote-swap", false, "give rank 0 a tiny DMM+disk and spill its overflow to rank 1 (exercises remote swapping cross-process)")
		nodeBin   = flag.String("node-bin", "", "path to the lotsnode binary (empty = go build it)")
		timeout   = flag.Duration("timeout", 2*time.Minute, "whole-run deadline per transport")
		logDir    = flag.String("logdir", "", "directory for per-node stderr logs (empty = temp dir)")
		killRank  = flag.Int("kill-rank", -1, "recovery deployment: SIGKILL this rank mid-epoch, then gang-relaunch from the checkpoints (-1 = normal app run)")
		killEpoch = flag.Int("kill-epoch", 3, "recovery deployment: workload epoch the kill lands in")
		rows      = flag.Int("rows", 4, "recovery deployment: shared matrix rows")
		epochs    = flag.Int("epochs", 6, "recovery deployment: workload epochs")

		spawnKind = flag.String("spawner", "exec", "how ranks are started: exec (local), ssh (multi-host), wrap (prefix command)")
		hosts     = flag.String("hosts", "", "ssh spawner: comma-separated hosts, rank i on host i%len (required with -spawner ssh)")
		sshBin    = flag.String("ssh-bin", "", "ssh spawner: remote lotsnode path (empty = launcher-side path)")
		sshOpts   = flag.String("ssh-opts", "", "ssh spawner: extra ssh options, space-separated (e.g. '-p 2222 -i key')")
		wrapPfx   = flag.String("wrap", "", "wrap spawner: space-separated command prefix, %r = rank (e.g. 'ip netns exec rank%r')")
		useTLS    = flag.Bool("tls", false, "launcher-held fleet CA: issue a per-rank certificate and run every link over mutual TLS (tcp only)")
		metrics   = flag.Int("metrics-base", 0, "expose rank i's Prometheus /metrics on 127.0.0.1:(base+i); scraped+verified after the run (0 = off)")
		statsIvl  = flag.Duration("stats-interval", 0, "period for ranks to stream stats frames to the launcher (0 = off; implied by -watch)")
		watch     = flag.Bool("watch", false, "render a live per-rank fleet table from streamed stats/log frames, plus a final summary")
		traceRun  = flag.Bool("trace", false, "causal protocol tracing: each rank records a trace, the launcher merges them into logdir/fleet.trace.json (Perfetto-loadable) and prints per-barrier straggler attribution; on a casualty the flight-recorder tail is surfaced")
	)
	flag.Parse()

	spawner, err := buildSpawner(*spawnKind, *hosts, *sshBin, *sshOpts, *wrapPfx)
	if err != nil {
		fatal(err, 1)
	}
	if *watch && *statsIvl == 0 {
		*statsIvl = 500 * time.Millisecond
	}
	var kinds []lots.TransportKind
	switch *transport {
	case "udp":
		kinds = []lots.TransportKind{lots.TransportUDP}
	case "tcp":
		kinds = []lots.TransportKind{lots.TransportTCP}
	case "both":
		kinds = []lots.TransportKind{lots.TransportUDP, lots.TransportTCP}
	default:
		fatal(fmt.Errorf("unknown transport %q (want udp, tcp, both)", *transport), 1)
	}

	bin := *nodeBin
	if bin == "" {
		dir, err := os.MkdirTemp("", "lotsnode-bin-")
		if err != nil {
			fatal(err, 1)
		}
		defer os.RemoveAll(dir)
		if bin, err = harness.BuildLotsnode(dir); err != nil {
			fatal(err, 1)
		}
	}

	fleetOf := func(kind lots.TransportKind) harness.FleetSpec {
		return harness.FleetSpec{
			Procs: *nodes, Transport: kind, ChaosSeed: *chaosSeed,
			Spawner: spawner, TLS: *useTLS,
			NodeBin: bin, Timeout: *timeout, LogDir: *logDir,
		}
	}

	if *killRank >= 0 {
		if *remote {
			fatal(fmt.Errorf("-remote-swap does not combine with the recovery deployment"), 1)
		}
		if *metrics != 0 || *statsIvl != 0 || *watch || *traceRun {
			fatal(fmt.Errorf("-metrics-base/-stats-interval/-watch/-trace observe an app run and do not combine with the recovery deployment"), 1)
		}
		for _, kind := range kinds {
			spec := harness.RecoveryMultiprocSpec{
				FleetSpec: fleetOf(kind),
				Rows:      *rows, Words: *problem, Epochs: *epochs,
				KillRank: *killRank, KillEpoch: *killEpoch,
			}
			res, err := harness.RunRecoveryMultiproc(spec)
			if err != nil {
				fatalLaunch(err)
			}
			harness.FormatRecoveryMultiproc(os.Stdout, spec, res)
			fmt.Println()
		}
		return
	}

	appName, err := harness.ParseApp(*app)
	if err != nil {
		fatal(err, 1)
	}
	for _, kind := range kinds {
		spec := harness.MultiprocSpec{
			FleetSpec: fleetOf(kind),
			App:       appName, Problem: *problem,
			SORIters: *sorIters, Seed: *seed, RemoteSwap: *remote,
			MetricsBase: *metrics, StatsInterval: *statsIvl,
			Trace: *traceRun,
		}
		var w *watcher
		if *watch {
			w = newWatcher(os.Stdout, *nodes)
			spec.OnStats = w.OnStats
			spec.OnLog = w.OnLog
		}
		start := time.Now()
		res, err := harness.RunMultiproc(spec)
		if w != nil {
			w.Finish()
		}
		if err != nil {
			fatalLaunch(err)
		}
		mode := ""
		if *chaosSeed != 0 {
			mode += fmt.Sprintf(" chaos=%d(per-rank)", *chaosSeed)
		}
		if *remote {
			mode += " remote-swap"
		}
		if spawner != nil {
			mode += " spawner=" + spawner.String()
		}
		if *useTLS {
			mode += " tls(per-rank-certs)"
		}
		fmt.Printf("Multi-process deployment — %d lotsnode processes over %v, app=%s problem=%d seed=%d%s\n",
			*nodes, kind, appName, *problem, *seed, mode)
		fmt.Printf("  %-6s %-18s %12s %12s %s\n", "node", "digest", "msgs", "bytes", "metrics")
		for _, nr := range res.Nodes {
			fmt.Printf("  %-6d %-18s %12d %12d %s\n", nr.Node, nr.Digest[:16]+"..", nr.Msgs, nr.Bytes, nr.MetricsAddr)
		}
		fmt.Printf("  in-process mem digest: %s..\n", res.MemDigest[:16])
		if *metrics != 0 {
			fmt.Printf("  metrics: every rank's endpoint scraped and verified; final scrapes in %s\n", res.LogDir)
		}
		if res.Trace != nil {
			for _, line := range strings.Split(strings.TrimRight(res.Trace.Format(), "\n"), "\n") {
				fmt.Printf("  %s\n", line)
			}
		}
		fmt.Printf("  verified: byte-identical across %d processes and vs the mem run (%v wall)\n\n",
			*nodes, time.Since(start).Round(time.Millisecond))
	}
}

// buildSpawner maps the -spawner/-hosts/-wrap flag surface onto a
// harness.Spawner.
func buildSpawner(kind, hosts, sshBin, sshOpts, wrapPfx string) (harness.Spawner, error) {
	switch kind {
	case "exec", "":
		if hosts != "" || wrapPfx != "" {
			return nil, fmt.Errorf("-hosts/-wrap require -spawner ssh/wrap")
		}
		return harness.ExecSpawner{}, nil
	case "ssh":
		if hosts == "" {
			return nil, fmt.Errorf("-spawner ssh requires -hosts")
		}
		return harness.SSHSpawner{
			Hosts:   strings.Split(hosts, ","),
			BinPath: sshBin,
			Extra:   strings.Fields(sshOpts),
		}, nil
	case "wrap":
		if wrapPfx == "" {
			return nil, fmt.Errorf("-spawner wrap requires -wrap")
		}
		return harness.WrapSpawner{Prefix: strings.Fields(wrapPfx)}, nil
	default:
		return nil, fmt.Errorf("unknown spawner %q (want exec, ssh, wrap)", kind)
	}
}

func fatal(err error, code int) {
	fmt.Fprintln(os.Stderr, "lotslaunch:", err)
	os.Exit(code)
}

// fatalLaunch maps a launcher error onto the documented exit codes:
// 3 for a node process death, 4 for a digest mismatch, 1 otherwise.
// On a traced run a peer death carries the flight-recorder tail — the
// last protocol events before the casualty — printed next to the
// attribution.
func fatalLaunch(err error) {
	var pd *harness.PeerDeathError
	if errors.As(err, &pd) {
		if pd.FlightTail != "" {
			fmt.Fprintf(os.Stderr, "flight recorder (rank %d's log):\n%s", pd.FlightNode, pd.FlightTail)
		}
		fatal(err, 3)
	}
	var dm *harness.DigestMismatchError
	if errors.As(err, &dm) {
		fatal(err, 4)
	}
	fatal(err, 1)
}
