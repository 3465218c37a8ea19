// Command lotsnode runs ONE node of a LOTS cluster as its own OS
// process — the deployment model of the paper's testbed, where each
// machine hosts one DSM process. A launcher (cmd/lotslaunch) spawns N
// of these and coordinates them over stdin/stdout with the control
// protocol of internal/wire:
//
//	lotsnode -id 2 -nodes 4 -transport udp -app sor -problem 32
//
//	stdout <- hello  {node, bound transport address}
//	stdin  -> peers  {all N addresses, rank order}
//	stdout <- ready  (after the barrier-0 join handshake)
//	stdout <- stats  (periodic, with -stats-interval: named counter values)
//	stdout <- log    (with -log-frames: each log line, relayed)
//	stdout <- digest {final shared-state digest, stats}
//
// Observability: -metrics addr serves Prometheus text metrics (every
// stats counter plus per-epoch protocol phase timings) at /metrics
// for the life of the process; in launcher mode the process then holds
// after its digest until stdin EOF so the launcher can take a final
// scrape. -tls-cert/-tls-key/-tls-ca bring the TCP links up with
// per-node certificates under a fleet CA (see cmd/lotslaunch -tls).
//
// With -app recov the node runs the checkpoint/recovery epoch workload
// instead of a Fig. 8 application: -ckpt-root enables barrier-time
// incremental checkpoints, each epoch is announced to the launcher
// with an epoch frame (the rank-kill chaos hook), and -recover resumes
// from the newest commonly restorable checkpoint after a gang restart.
//
// With -addrs the address list is static and no launcher is needed:
// the node binds its own slot, joins, runs, and prints human-readable
// results — the mode for launching a cluster by hand:
//
//	for i in 0 1 2 3; do
//	  lotsnode -id $i -nodes 4 -transport tcp \
//	    -addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 \
//	    -app me -problem 16384 &
//	done; wait
//
// Logs go to stderr; stdout is reserved for the control protocol (or
// the human-readable summary in -addrs mode). Exit codes: 0 success,
// 1 runtime failure (join, application, digest), 2 bad configuration.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	lots "repro"
	"repro/internal/apps"
	"repro/internal/disk"
	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/stats/phases"
	"repro/internal/trace"
	tpt "repro/internal/transport"
	"repro/internal/wire"
)

// flightRing is the rank's trace ring once tracing is live; the
// watchdog and the SIGQUIT handler race the main goroutine's
// assignment, hence the atomic. When tracing is off it stays nil and
// the flight recorder is silent.
var flightRing atomic.Pointer[trace.Ring]

// flightTailEvents is how many trailing trace events the flight
// recorder dumps on failure — enough to see the epoch leading up to
// the crash without flooding the log.
const flightTailEvents = 64

// dumpFlight writes the flight-recorder tail to stderr (the node log),
// delimited so a launcher can scan it out of the log file.
func dumpFlight() {
	if r := flightRing.Load(); r != nil {
		r.DumpTail(os.Stderr, flightTailEvents)
	}
}

// ctrlMu serializes every control frame written to stdout: the main
// goroutine (hello/ready/digest), the stats ticker, and the log relay
// all write frames, and an interleaved frame would desync the
// launcher's decoder.
var ctrlMu sync.Mutex

func writeCtrl(c wire.Ctrl) error {
	ctrlMu.Lock()
	defer ctrlMu.Unlock()
	return wire.WriteCtrl(os.Stdout, c)
}

// ctrlLogWriter relays each log line as a CtrlLog frame (in addition
// to stderr, which log keeps via MultiWriter). The log package calls
// Write once per line.
type ctrlLogWriter struct{ id int }

func (w ctrlLogWriter) Write(p []byte) (int, error) {
	line := strings.TrimRight(string(p), "\n")
	writeCtrl(wire.Ctrl{Kind: wire.CtrlLog, Node: uint16(w.id), Log: line}) //nolint:errcheck // best-effort relay; stderr still has the line
	return len(p), nil
}

// statsCtrl snapshots the handle's counters and phase totals into one
// CtrlStats frame: counter names are the canonical stats field names,
// phase totals ride as phase_<name>_ns / phase_<name>_events entries.
func statsCtrl(id int, h *lots.NodeHandle) wire.Ctrl {
	fields := h.Stats().Fields()
	sts := make([]wire.CtrlStat, 0, len(fields)+2*int(phases.NumKinds))
	for _, f := range fields {
		sts = append(sts, wire.CtrlStat{Name: f.Name, Val: f.Value})
	}
	ns, events := h.Phases().Totals()
	var epoch uint32
	if eps := h.Phases().Epochs(); len(eps) > 0 {
		epoch = eps[len(eps)-1].Epoch
	}
	for _, k := range phases.Kinds() {
		sts = append(sts,
			wire.CtrlStat{Name: "phase_" + k.String() + "_ns", Val: ns[k]},
			wire.CtrlStat{Name: "phase_" + k.String() + "_events", Val: events[k]})
	}
	return wire.Ctrl{Kind: wire.CtrlStats, Node: uint16(id), Epoch: epoch, Stats: sts}
}

func main() {
	var (
		id        = flag.Int("id", -1, "this node's rank (0-based)")
		nodes     = flag.Int("nodes", 0, "cluster size")
		transport = flag.String("transport", "udp", "interconnect: udp or tcp")
		bind      = flag.String("bind", "", "bind address override (default: this rank's -addrs entry, or an ephemeral loopback port)")
		addrs     = flag.String("addrs", "", "static comma-separated address list (rank order); empty = learn peers from the launcher over stdin")
		app       = flag.String("app", "sor", "application: me, lu, sor, rx, recov")
		problem   = flag.Int("problem", 32, "problem size (me/rx: keys; lu/sor: matrix dimension; recov: words per row)")
		sorIters  = flag.Int("sor-iters", 4, "sor: red-black iteration pairs")
		rows      = flag.Int("rows", 4, "recov: shared matrix rows")
		epochs    = flag.Int("epochs", 6, "recov: workload epochs to run")
		ckptRoot  = flag.String("ckpt-root", "", "recov: checkpoint root directory (enables barrier-time checkpoints)")
		resume    = flag.Bool("recover", false, "recov: resume from the checkpoints under -ckpt-root instead of starting fresh")
		stallAt   = flag.Int("stall-at", -1, "recov: freeze forever upon entering this epoch, mid-write — the launcher's deterministic SIGKILL window (fresh runs only)")
		seed      = flag.Int64("seed", 42, "deterministic input seed (me/lu/rx)")
		dmm       = flag.Int("dmm", 0, "per-node DMM area bytes (0 = library default)")
		chaos     = flag.Int64("chaos", 0, "non-zero enables seeded fault injection; this node's schedule uses the per-rank convention RankChaosSeed(seed, id)")
		remote    = flag.Bool("remote-swap", false, "spill local-disk overflow to rank (id+1)%nodes via the remote-swap extension (self-asserts at least one spill)")
		diskCap   = flag.Int64("disk", 0, "this node's simulated local disk capacity in bytes (0 = library default)")
		timeout   = flag.Duration("timeout", 2*time.Minute, "abort if the run has not finished in this long (0 = no watchdog)")
		metrics   = flag.String("metrics", "", "serve Prometheus metrics on this address (e.g. 127.0.0.1:9300); launcher mode holds the process open after the digest until stdin EOF so the launcher can take a final scrape")
		statsIvl  = flag.Duration("stats-interval", 0, "stream a stats control frame to the launcher at this period (launcher mode only; 0 = off)")
		logFrames = flag.Bool("log-frames", false, "relay each log line to the launcher as a control frame, in addition to stderr (launcher mode only)")
		tracePath = flag.String("trace", "", "enable causal protocol tracing and write this rank's Chrome trace-event JSON to this file before the digest")
		tlsCert   = flag.String("tls-cert", "", "this node's PEM certificate (requires -tls-key and -tls-ca; TCP only)")
		tlsKey    = flag.String("tls-key", "", "this node's PEM private key")
		tlsCA     = flag.String("tls-ca", "", "the fleet CA certificate peers are verified against")
	)
	flag.Parse()
	log.SetFlags(log.Lmicroseconds)
	log.SetPrefix(fmt.Sprintf("lotsnode[%d]: ", *id))

	cfg := lots.DefaultConfig(max(*nodes, 1))
	switch *transport {
	case "udp":
		cfg.Transport = lots.TransportUDP
	case "tcp":
		cfg.Transport = lots.TransportTCP
	default:
		fatalConfig(fmt.Errorf("unknown transport %q (want udp or tcp)", *transport))
	}
	if *dmm != 0 {
		cfg.DMMSize = *dmm
	}
	if *chaos != 0 {
		// Per-rank seed convention: every process derives its own
		// decorrelated-but-deterministic schedule from the launcher's
		// cluster seed. The final digests must still be byte-identical
		// to a clean run — chaos may only cost retransmissions.
		cc := lots.DefaultChaos(lots.RankChaosSeed(*chaos, *id))
		cfg.Chaos = &cc
	}
	if *diskCap != 0 {
		capBytes := *diskCap
		cfg.Store = func(int) disk.Store { return disk.NewSimStore(capBytes) }
	}
	cfg.Trace = *tracePath != ""
	recov := *app == "recov"
	var appName harness.AppName
	if recov {
		if *ckptRoot == "" {
			fatalConfig(fmt.Errorf("-app recov requires -ckpt-root"))
		}
		if *stallAt >= 0 && *resume {
			fatalConfig(fmt.Errorf("-stall-at only applies to fresh (non -recover) runs"))
		}
		cfg.Recovery = &lots.RecoveryOpts{Root: *ckptRoot, Resume: *resume}
	} else {
		if *resume || *ckptRoot != "" || *stallAt >= 0 {
			fatalConfig(fmt.Errorf("-recover/-ckpt-root/-stall-at only apply to -app recov"))
		}
		var err error
		if appName, err = harness.ParseApp(*app); err != nil {
			fatalConfig(err)
		}
	}
	if *nodes < 1 || *id < 0 || *id >= *nodes {
		fatalConfig(fmt.Errorf("node id %d / cluster size %d out of range", *id, *nodes))
	}
	static := *addrs != ""
	var peerList []string
	if static {
		peerList = strings.Split(*addrs, ",")
		if err := lots.ValidatePeerAddrs(peerList, *nodes); err != nil {
			fatalConfig(err)
		}
		cfg.Addrs = peerList
	}
	cfg.Nodes = *nodes
	if static && (*statsIvl > 0 || *logFrames) {
		fatalConfig(fmt.Errorf("-stats-interval and -log-frames need a launcher (no -addrs)"))
	}
	if (*tlsCert != "") != (*tlsKey != "") || (*tlsCert != "") != (*tlsCA != "") {
		fatalConfig(fmt.Errorf("-tls-cert, -tls-key and -tls-ca must be given together"))
	}
	if *tlsCert != "" {
		tc, err := tpt.LoadNodeTLS(*tlsCert, *tlsKey, *tlsCA)
		if err != nil {
			fatalConfig(err)
		}
		cfg.TLS = tc
	}
	if *logFrames {
		// Each log line still lands on stderr (the local log file); the
		// relay gives the launcher's fleet view a live copy.
		log.SetOutput(io.MultiWriter(os.Stderr, ctrlLogWriter{id: *id}))
	}
	var wd *time.Timer
	if *timeout > 0 {
		// A peer process dying mid-barrier would otherwise park this
		// process forever inside a blocked RPC; the watchdog turns that
		// into a loud, bounded failure the launcher can attribute. It is
		// stopped explicitly the moment the run has succeeded — not via
		// defer, which would leave it armed through h.Close's flush and
		// fail a run that finished just inside the deadline.
		wd = time.AfterFunc(*timeout, func() {
			fail(*id, static, fmt.Errorf("watchdog: run exceeded %v (peer died mid-barrier?)", *timeout))
		})
	}

	h, err := lots.BindNodeAt(cfg, *id, *bind)
	if err != nil {
		fatalConfig(err)
	}
	defer h.Close()
	log.Printf("bound %s on %s", *transport, h.LocalAddr())
	if ring := h.Trace(); ring != nil {
		flightRing.Store(ring)
		// SIGQUIT dumps the flight-recorder tail to the node log. The
		// launcher sends it to the survivors when a peer dies, so the
		// protocol state leading up to the casualty lands in every log.
		sigq := make(chan os.Signal, 1)
		signal.Notify(sigq, syscall.SIGQUIT)
		go func() {
			for range sigq {
				dumpFlight()
			}
		}()
	}

	if *metrics != "" {
		// The observability surface: every counter plus the per-epoch
		// protocol phase ring, scrape-safe while the run is hot (the
		// handler snapshots; it never touches live atomics directly).
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			fatalConfig(fmt.Errorf("metrics listener: %w", err))
		}
		mux := stats.NewMetricsMux(*id, h.Stats, h.Phases())
		go func() {
			if err := http.Serve(ln, mux); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
		log.Printf("metrics on http://%s/metrics", ln.Addr())
	}

	if !static {
		// Phase 1: report the bound address; phase 2: learn the peers.
		if err := writeCtrl(wire.Ctrl{Kind: wire.CtrlHello, Node: uint16(*id), Addr: h.LocalAddr()}); err != nil {
			fail(*id, static, fmt.Errorf("hello: %w", err))
		}
		c, err := wire.ReadCtrl(os.Stdin)
		if err != nil {
			fail(*id, static, fmt.Errorf("reading peers frame: %w", err))
		}
		if c.Kind != wire.CtrlPeers {
			fail(*id, static, fmt.Errorf("expected peers frame, got %v", c.Kind))
		}
		peerList = c.Addrs
		if err := lots.ValidatePeerAddrs(peerList, *nodes); err != nil {
			fail(*id, static, err)
		}
	}

	// Barrier-0 join: returns only when every rank has checked in.
	if err := h.Join(peerList); err != nil {
		fail(*id, static, err)
	}
	log.Printf("joined %d-node cluster", *nodes)
	if !static {
		// WallNS timestamps the ready frame: the launcher brackets the
		// round trip on its own clock and derives this rank's offset for
		// the merged trace timeline.
		if err := writeCtrl(wire.Ctrl{Kind: wire.CtrlReady, Node: uint16(*id), WallNS: time.Now().UnixNano()}); err != nil {
			fail(*id, static, fmt.Errorf("ready: %w", err))
		}
	}

	// Stream periodic stats frames to the launcher's fleet view. The
	// ticker stops (and is drained) before the digest frame, so the
	// launcher never sees a stats frame after the final one below.
	var stopStats func()
	if *statsIvl > 0 {
		done, finished := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(finished)
			t := time.NewTicker(*statsIvl)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
					if err := writeCtrl(statsCtrl(*id, h)); err != nil {
						return
					}
				}
			}
		}()
		stopStats = func() { close(done); <-finished }
	}

	var (
		simTime  time.Duration
		digest   string
		resumeEp int
	)
	start := time.Now()
	err = h.Run(func(n *lots.Node) {
		if *remote {
			n.EnableRemoteSwap((n.ID() + 1) % n.N())
		}
		if recov {
			// Announce each workload epoch on the control pipe: the
			// launcher's rank-kill chaos cell SIGKILLs this process when
			// the fleet reaches its kill epoch. An epoch is announced only
			// after the previous epoch's checkpoints (and buddy acks) are
			// durable, so the launcher can kill on it without losing state.
			onEpoch := func(ep int) {
				if static {
					log.Printf("entering epoch %d", ep)
					return
				}
				if err := writeCtrl(wire.Ctrl{Kind: wire.CtrlEpoch, Node: uint16(*id), Epoch: uint32(ep)}); err != nil {
					fail(*id, static, fmt.Errorf("epoch frame: %w", err))
				}
			}
			resumeEp, digest = harness.RunRecoveryNode(n, *rows, *problem, *epochs, *stallAt, onEpoch)
			return
		}
		simTime, digest = harness.RunAppDigest(apps.NewLotsBackend(n), appName, *problem, *sorIters, *seed)
	})
	if err != nil {
		fail(*id, static, err)
	}
	if *remote {
		// The flag is a smoke assertion, not a hint: a run that never
		// actually overflowed to the peer proves nothing about the
		// remote path and must fail loudly.
		if spills := h.Node().RemoteSpills(); spills == 0 {
			fail(*id, static, fmt.Errorf("remote-swap run finished without a single spill to the peer (disk=%d dmm=%d too large?)", *diskCap, cfg.DMMSize))
		} else {
			log.Printf("remote swap exercised: %d spills to rank %d", spills, (*id+1)%*nodes)
		}
	}
	if wd != nil {
		wd.Stop()
	}
	snap := h.Stats()
	log.Printf("%s done in %v wall: digest=%s msgs=%d bytes=%d",
		*app, time.Since(start).Round(time.Millisecond), digest, snap.MsgsSent, snap.BytesSent)

	if *tracePath != "" {
		// Export before the digest frame: the launcher collects trace
		// files as soon as every digest is in, so the file must be
		// complete by then.
		if err := exportTrace(h, *tracePath); err != nil {
			fail(*id, static, fmt.Errorf("trace export: %w", err))
		}
		log.Printf("trace: %d events to %s", h.Trace().Len(), *tracePath)
	}

	if static {
		fmt.Printf("node %d: app=%s problem=%d digest=%s msgs=%d bytes=%d\n",
			*id, *app, *problem, digest, snap.MsgsSent, snap.BytesSent)
		if recov {
			fmt.Printf("node %d: resumed at epoch %d, ckpts=%d skipped=%d rehomes=%d\n",
				*id, resumeEp, snap.Ckpts, snap.CkptSkipped, snap.Rehomes)
		}
	} else {
		if stopStats != nil {
			stopStats()
			// One final stats frame with the ticker quiesced, so the
			// launcher's last per-rank numbers are the complete run's.
			writeCtrl(statsCtrl(*id, h)) //nolint:errcheck // the digest write below reports a broken pipe
		}
		err = writeCtrl(wire.Ctrl{
			Kind: wire.CtrlDigest, Node: uint16(*id), Digest: digest,
			SimNS: int64(simTime), Msgs: snap.MsgsSent, Bytes: snap.BytesSent,
			Epoch: uint32(resumeEp), Ckpts: snap.Ckpts, CkptSkipped: snap.CkptSkipped, Rehomes: snap.Rehomes,
		})
		if err != nil {
			fail(*id, static, fmt.Errorf("digest: %w", err))
		}
		if *metrics != "" {
			// Hold for the launcher's final scrape: the digest frame is
			// out but the metrics endpoint must stay up until the launcher
			// is done with it. Stdin EOF (the launcher closing our pipe)
			// is the release.
			_, _ = io.Copy(io.Discard, os.Stdin)
		}
	}
}

// exportTrace writes the rank's trace ring as Chrome trace-event JSON.
func exportTrace(h *lots.NodeHandle, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := h.Trace().Export(f); err != nil {
		f.Close() //nolint:errcheck // the export error wins
		return err
	}
	return f.Close()
}

// fail reports a runtime failure on the control channel (so the
// launcher can attribute it) and exits 1. With tracing live it first
// dumps the flight-recorder tail to the node log — the protocol events
// leading up to the failure.
func fail(id int, static bool, err error) {
	log.Print(err)
	dumpFlight()
	if !static {
		writeCtrl(wire.Ctrl{Kind: wire.CtrlError, Node: uint16(id), Err: err.Error()}) //nolint:errcheck // exiting anyway
	}
	os.Exit(1)
}

// fatalConfig reports a configuration error and exits 2.
func fatalConfig(err error) {
	fmt.Fprintln(os.Stderr, "lotsnode:", err)
	os.Exit(2)
}
