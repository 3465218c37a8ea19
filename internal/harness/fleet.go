package harness

// The fleet: one spawned generation of cmd/lotsnode OS processes under
// one deadline. Every multi-process launch — the application run of
// multiproc.go, both generations of multiproc_recovery.go's
// kill-and-relaunch — is a script over this one type, which owns the
// only copies of spawning, the hello -> peers -> ready bring-up,
// per-phase frame collection with casualty attribution, the kill, the
// clean exit and the teardown.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	lots "repro"
	"repro/internal/transport"
	"repro/internal/wire"
)

// FleetSpec is what a multi-process launch says about its fleet,
// whatever the ranks then run. MultiprocSpec and RecoveryMultiprocSpec
// embed it.
type FleetSpec struct {
	Procs int

	// Transport must be lots.TransportUDP or lots.TransportTCP.
	Transport lots.TransportKind

	// ChaosSeed, when non-zero, enables seeded fault injection in
	// every node process. Each rank derives its own schedule with the
	// per-rank convention (lots.RankChaosSeed), so the cross-process
	// fault cells are deterministic from this one seed while the
	// in-process mem reference run stays clean — the digests must
	// match regardless.
	ChaosSeed int64

	// Spawner controls how rank processes are started (nil =
	// ExecSpawner: plain local exec). SSHSpawner places ranks on real
	// hosts; WrapSpawner prefixes an arbitrary stream-transparent
	// wrapper. The control protocol is identical in every case.
	Spawner Spawner

	// TLS, when true (TCP only), has the launcher act as a fleet CA:
	// it issues a distinct certificate per rank under LogDir/tls and
	// the ranks bring their links up with mutual TLS. The in-process
	// mem reference run is unaffected — digests must match regardless.
	TLS bool

	// OnLog observes per-rank relayed log lines (ranks send CtrlLog
	// frames when spawned with -log-frames; the launcher enables that
	// whenever OnLog is set).
	OnLog func(node int, line string)

	// NodeBin is the lotsnode binary ("" = build it with `go build`
	// into a temp dir — fine for CI, where the toolchain exists).
	NodeBin string

	// Timeout bounds one generation, spawn to last digest (0 = 2m).
	Timeout time.Duration

	// LogDir receives one stderr log file per node ("" = temp dir).
	// The files are kept on failure so CI can upload them.
	LogDir string
}

// resolve validates the spec and fills in what it left open: the
// default deadline, a freshly built lotsnode, a temp log dir, and the
// fleet's TLS material. cleanup removes what resolve created — the
// temp log dir only when asked to, since a failed run's logs are the
// post-mortem.
func (s *FleetSpec) resolve() (cleanup func(removeLogs bool), err error) {
	if s.Procs < 2 {
		return nil, fmt.Errorf("harness: a fleet needs >= 2 processes, got %d", s.Procs)
	}
	if s.Transport != lots.TransportUDP && s.Transport != lots.TransportTCP {
		return nil, fmt.Errorf("harness: a fleet requires a socket transport, got %v", s.Transport)
	}
	if s.TLS && s.Transport != lots.TransportTCP {
		return nil, fmt.Errorf("harness: TLS fleets require the TCP transport, got %v", s.Transport)
	}
	if s.Timeout == 0 {
		s.Timeout = 2 * time.Minute
	}
	var binDir, tempLogs string
	cleanup = func(removeLogs bool) {
		if binDir != "" {
			os.RemoveAll(binDir) //nolint:errcheck // best-effort cleanup
		}
		if removeLogs && tempLogs != "" {
			os.RemoveAll(tempLogs) //nolint:errcheck // best-effort cleanup
		}
	}
	if s.NodeBin == "" {
		if binDir, err = os.MkdirTemp("", "lotsnode-bin-"); err != nil {
			return nil, err
		}
		if s.NodeBin, err = BuildLotsnode(binDir); err != nil {
			cleanup(false)
			return nil, err
		}
	}
	if s.LogDir == "" {
		if tempLogs, err = os.MkdirTemp("", "lotsnode-logs-"); err != nil {
			cleanup(false)
			return nil, err
		}
		s.LogDir = tempLogs
	} else if err := os.MkdirAll(s.LogDir, 0o755); err != nil {
		cleanup(false)
		return nil, fmt.Errorf("harness: log dir: %w", err)
	}
	if s.TLS {
		// The launcher is the fleet CA: per-rank leaf pairs plus the
		// root certificate land under the log dir, and each rank loads
		// only its own pair (the root's key never touches disk).
		if err := writeFleetTLS(s.LogDir, s.Procs); err != nil {
			cleanup(false)
			return nil, err
		}
	}
	return cleanup, nil
}

// BuildLotsnode compiles cmd/lotsnode into dir and returns the binary
// path.
func BuildLotsnode(dir string) (string, error) {
	bin := filepath.Join(dir, "lotsnode")
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/lotsnode").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("harness: building lotsnode: %v\n%s", err, out)
	}
	return bin, nil
}

// writeFleetTLS generates a fleet CA and writes per-rank leaf pairs
// plus the root certificate under logDir/tls.
func writeFleetTLS(logDir string, procs int) error {
	tlsDir := filepath.Join(logDir, "tls")
	if err := os.MkdirAll(tlsDir, 0o700); err != nil {
		return err
	}
	ca, err := transport.NewCA()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(tlsDir, "ca.crt"), ca.CertPEM(), 0o600); err != nil {
		return err
	}
	for i := 0; i < procs; i++ {
		certPEM, keyPEM, err := ca.IssueNode(i)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(tlsDir, fmt.Sprintf("node-%d.crt", i)), certPEM, 0o600); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(tlsDir, fmt.Sprintf("node-%d.key", i)), keyPEM, 0o600); err != nil {
			return err
		}
	}
	return nil
}

// rankArgs is the argv every rank of the fleet gets, whatever it runs.
func (s FleetSpec) rankArgs(rank int) []string {
	args := []string{
		"-id", strconv.Itoa(rank),
		"-nodes", strconv.Itoa(s.Procs),
		"-transport", s.Transport.String(),
		"-timeout", s.Timeout.String(),
	}
	if s.ChaosSeed != 0 {
		args = append(args, "-chaos", strconv.FormatInt(s.ChaosSeed, 10))
	}
	if s.OnLog != nil {
		args = append(args, "-log-frames")
	}
	if s.TLS {
		tlsDir := filepath.Join(s.LogDir, "tls")
		args = append(args,
			"-tls-cert", filepath.Join(tlsDir, fmt.Sprintf("node-%d.crt", rank)),
			"-tls-key", filepath.Join(tlsDir, fmt.Sprintf("node-%d.key", rank)),
			"-tls-ca", filepath.Join(tlsDir, "ca.crt"))
	}
	return args
}

// fleet is one spawned generation of a resolved FleetSpec.
type fleet struct {
	procs    []*nodeProc
	deadline *time.Timer
}

// launch spawns one generation: every rank through the spec's Spawner
// with rankArgs plus the run's own extra flags, under a fresh deadline.
// It collects ALL spawn failures instead of stopping at the first: on
// a multi-host fleet, "rank 3's host refused ssh AND rank 5's binary is
// missing" is the actionable report, and every error names its rank.
// The caller owes the returned fleet a reap.
func (s FleetSpec) launch(extra func(rank int) []string) (*fleet, error) {
	f := &fleet{procs: make([]*nodeProc, s.Procs), deadline: time.NewTimer(s.Timeout)}
	var spawnErrs []error
	for i := range f.procs {
		p, err := spawnProc(s.Spawner, s.NodeBin, s.LogDir, i, append(s.rankArgs(i), extra(i)...))
		if err != nil {
			spawnErrs = append(spawnErrs, err)
			continue
		}
		if s.OnLog != nil {
			p.onLog = func(line string) { s.OnLog(p.id, line) }
		}
		f.procs[i] = p
	}
	if len(spawnErrs) > 0 {
		f.reap() //nolint:errcheck // the spawn errors are the report
		return nil, errors.Join(spawnErrs...)
	}
	return f, nil
}

// bringUp runs the hello -> peers -> ready handshake and returns each
// rank's clock offset against the launcher (node clock = launcher
// clock + offset), which the trace merge needs.
func (f *fleet) bringUp() (offsetNS []int64, err error) {
	// Phase 1: every node reports its bound address.
	hellos, _, err := f.collect(wire.CtrlHello, "hello")
	if err != nil {
		return nil, err
	}
	addrs := make([]string, len(f.procs))
	for i, c := range hellos {
		addrs[i] = c.Addr
	}
	if err := lots.ValidatePeerAddrs(addrs, len(f.procs)); err != nil {
		return nil, err
	}

	// Phase 2: distribute the list; every node joins and reports ready.
	// sentAt brackets the round trip from below: the peers frame is the
	// last launcher->daemon traffic before the daemon's ready frame, so
	// [sentAt, ready arrival] contains the daemon's WallNS stamp.
	sentAt := make([]time.Time, len(f.procs))
	for _, p := range f.procs {
		sentAt[p.id] = time.Now()
		if err := wire.WriteCtrl(p.stdin, wire.Ctrl{Kind: wire.CtrlPeers, Addrs: addrs}); err != nil {
			return nil, &PeerDeathError{Node: p.id, Phase: "ready", Cause: err}
		}
	}
	readies, readyAt, err := f.collect(wire.CtrlReady, "ready")
	if err != nil {
		return nil, err
	}
	// The daemon stamped its wall clock WallNS somewhere inside
	// [sentAt, readyAt] on the launcher's clock, so the midpoint
	// estimates launcher-time-at-stamp and the difference is the rank's
	// offset. The join barrier dominates the interval, but every rank's
	// interval contains the same barrier-exit moment, so the midpoints
	// stay comparable.
	offsetNS = make([]int64, len(f.procs))
	for i, c := range readies {
		mid := sentAt[i].UnixNano() + readyAt[i].Sub(sentAt[i]).Nanoseconds()/2
		offsetNS[i] = c.WallNS - mid
	}
	return offsetNS, nil
}

// kill SIGKILLs one rank's process.
func (f *fleet) kill(rank int) error { return f.procs[rank].cmd.Process.Kill() }

// finish releases every rank (stdin EOF) and requires each to exit 0.
// A fresh per-process timer here, not the shared deadline: a
// time.Timer channel delivers once, and an earlier phase's select may
// already have consumed the tick.
func (f *fleet) finish() error {
	for _, p := range f.procs {
		p.stdin.Close()
		select {
		case <-p.exited:
			if p.exitErr != nil {
				return &PeerDeathError{Node: p.id, Phase: "run", Cause: fmt.Errorf("exit: %w", p.exitErr)}
			}
		case <-time.After(10 * time.Second):
			return &PeerDeathError{Node: p.id, Phase: "run", Cause: errors.New("timeout waiting for exit")}
		}
	}
	return nil
}

// reap kills and reaps whatever is left of the fleet — whatever
// happened, leave no child behind — and reports the ranks that would
// not die. Safe to call twice.
func (f *fleet) reap() error {
	f.deadline.Stop()
	for _, p := range f.procs {
		if p != nil && p.cmd.Process != nil {
			p.cmd.Process.Kill() //nolint:errcheck // best-effort teardown
		}
	}
	var errs []error
	for _, p := range f.procs {
		if p == nil {
			continue
		}
		select {
		case <-p.exited:
		case <-time.After(5 * time.Second):
			errs = append(errs, fmt.Errorf("harness: rank %d did not exit on teardown", p.id))
		}
		p.logFile.Close()
	}
	return errors.Join(errs...)
}

// nodeProc tracks one spawned lotsnode process.
type nodeProc struct {
	id      int
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	frames  chan wire.Ctrl // closed on stdout EOF
	readErr error          // set before frames is closed, if the pipe broke mid-frame
	exited  chan struct{}  // closed once cmd.Wait returned
	exitErr error          // cmd.Wait's result; valid after exited is closed
	exitAt  time.Time      // when cmd.Wait returned; valid after exited is closed
	logPath string
	logFile *os.File

	// onStats/onLog observe the streaming frames awaitFrame skips past
	// (CtrlStats, CtrlLog). Nil when nobody is watching.
	onStats func(wire.Ctrl)
	onLog   func(string)
}

// spawnProc starts one lotsnode process through the given spawner
// (nil = plain local exec), its control pipes and log capture wired
// up. Every failure path names the rank: a fleet launcher joins these
// across ranks, and "which rank failed to spawn, and how" is the
// actionable part.
func spawnProc(sp Spawner, bin, logDir string, id int, args []string) (*nodeProc, error) {
	if sp == nil {
		sp = ExecSpawner{}
	}
	logPath := filepath.Join(logDir, fmt.Sprintf("node-%d.log", id))
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("harness: spawning rank %d via %s: log file: %w", id, sp, err)
	}
	argv := sp.Argv(id, bin, args)
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stderr = logFile
	// Manual pipes instead of StdinPipe/StdoutPipe: cmd.Wait closes the
	// helper pipes, and a node that exits the instant after writing its
	// digest frame would race Wait into closing the read end before the
	// frame reader drains it. With explicit os.Pipe ends the parent
	// owns, the reader always drains to a true EOF.
	stdoutR, stdoutW, err := os.Pipe()
	if err != nil {
		logFile.Close()
		return nil, fmt.Errorf("harness: spawning rank %d via %s: %w", id, sp, err)
	}
	stdinR, stdinW, err := os.Pipe()
	if err != nil {
		logFile.Close()
		stdoutR.Close()
		stdoutW.Close()
		return nil, fmt.Errorf("harness: spawning rank %d via %s: %w", id, sp, err)
	}
	cmd.Stdout = stdoutW
	cmd.Stdin = stdinR
	if err := cmd.Start(); err != nil {
		logFile.Close()
		stdoutR.Close()
		stdoutW.Close()
		stdinR.Close()
		stdinW.Close()
		return nil, fmt.Errorf("harness: spawning rank %d via %s: %w", id, sp, err)
	}
	// The child holds its own copies now; drop ours so EOF propagates
	// when the child exits.
	stdoutW.Close()
	stdinR.Close()
	stdin, stdout := io.WriteCloser(stdinW), io.Reader(stdoutR)
	p := &nodeProc{
		id: id, cmd: cmd, stdin: stdin,
		frames: make(chan wire.Ctrl, 4), exited: make(chan struct{}),
		logPath: logPath, logFile: logFile,
	}
	go func() {
		defer stdoutR.Close()
		for {
			c, err := wire.ReadCtrl(stdout)
			if err != nil {
				if err != io.EOF {
					p.readErr = err
				}
				close(p.frames)
				return
			}
			p.frames <- c
		}
	}()
	go func() { p.exitErr = cmd.Wait(); p.exitAt = time.Now(); close(p.exited) }()
	return p, nil
}

// collect awaits one frame of the given kind from EVERY process
// concurrently. Concurrency is what makes peer-death attribution
// possible at all: when rank k dies mid-barrier, every other rank
// eventually errors too (its channel to k breaks), so a rank-ordered
// sequential read would blame whichever lower rank errored while
// waiting. But "first error outcome observed" is still a race — a
// survivor's broken pipe can surface before the dead rank's EOF — so
// on a casualty the launcher drains the stragglers for a grace period
// and then attributes the death by actual process exit order.
func (f *fleet) collect(want wire.CtrlKind, phase string) ([]wire.Ctrl, []time.Time, error) {
	type outcome struct {
		node int
		c    wire.Ctrl
		at   time.Time
		err  error
	}
	ch := make(chan outcome, len(f.procs))
	for i, p := range f.procs {
		go func(i int, p *nodeProc) {
			c, err := awaitFrame(p, want, f.deadline.C)
			ch <- outcome{i, c, time.Now(), err}
		}(i, p)
	}
	out := make([]wire.Ctrl, len(f.procs))
	at := make([]time.Time, len(f.procs))
	var firstErr error
	firstNode := -1
	remaining := len(f.procs)
	for remaining > 0 {
		o := <-ch
		remaining--
		if o.err != nil {
			firstErr, firstNode = o.err, o.node
			break
		}
		out[o.node], at[o.node] = o.c, o.at
	}
	if firstErr == nil {
		return out, at, nil
	}
	grace := time.After(2 * time.Second)
	for remaining > 0 {
		select {
		case <-ch:
			remaining--
		case <-grace:
			remaining = 0
		}
	}
	node, cause := firstCasualty(f.procs, firstNode, firstErr)
	return nil, nil, &PeerDeathError{Node: node, Phase: phase, Cause: cause}
}

// firstCasualty names the rank that actually died first: among the
// processes that have already exited abnormally, the one with the
// earliest exit timestamp. Ranks whose pipes merely broke downstream
// (or that are still alive, stalled behind the dead peer's barrier)
// never outrank a real corpse. Falls back to the first observed error
// when no process has exited abnormally (e.g. a pure timeout).
func firstCasualty(procs []*nodeProc, fallbackNode int, fallbackErr error) (int, error) {
	best := -1
	var bestAt time.Time
	for _, p := range procs {
		select {
		case <-p.exited:
		default:
			continue
		}
		if p.exitErr == nil {
			continue
		}
		if best < 0 || p.exitAt.Before(bestAt) {
			best, bestAt = p.id, p.exitAt
		}
	}
	if best < 0 || best == fallbackNode {
		return fallbackNode, fallbackErr
	}
	return best, fmt.Errorf("process exited first: %w (log: %s)", procs[best].exitErr, procs[best].logPath)
}

// awaitFrame reads control frames from p until one of the given kind
// arrives. Progress frames (CtrlEpoch) are informational and skipped
// unless they are what the caller wants. A closed stream (the process
// died), a CtrlError frame, or the shared deadline all fail with a
// phase-attributable cause.
func awaitFrame(p *nodeProc, want wire.CtrlKind, deadline <-chan time.Time) (wire.Ctrl, error) {
	for {
		select {
		case c, ok := <-p.frames:
			if !ok {
				cause := p.readErr
				if cause == nil {
					cause = errors.New("process closed its control pipe")
				}
				return wire.Ctrl{}, fmt.Errorf("%w (log: %s)", cause, p.logPath)
			}
			if c.Kind == wire.CtrlError {
				return wire.Ctrl{}, fmt.Errorf("node reported: %s", c.Err)
			}
			if c.Kind == wire.CtrlEpoch && want != wire.CtrlEpoch {
				continue
			}
			if c.Kind == wire.CtrlStats && want != wire.CtrlStats {
				if p.onStats != nil {
					p.onStats(c)
				}
				continue
			}
			if c.Kind == wire.CtrlLog && want != wire.CtrlLog {
				if p.onLog != nil {
					p.onLog(c.Log)
				}
				continue
			}
			if c.Kind != want {
				return wire.Ctrl{}, fmt.Errorf("expected %v frame, got %v", want, c.Kind)
			}
			return c, nil
		case <-deadline:
			return wire.Ctrl{}, fmt.Errorf("timeout waiting for %v frame (mid-barrier peer death upstream?)", want)
		}
	}
}
