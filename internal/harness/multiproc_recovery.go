package harness

// Multi-process recovery: the in-process kill cells of recovery.go
// prove the checkpoint/recovery subsystem against an emulated death;
// this launcher proves it against the real thing. It spawns one
// cmd/lotsnode process per rank running the recovery epoch workload,
// SIGKILLs one rank the moment the whole fleet has entered KillEpoch
// (so every checkpoint up to KillEpoch-1 is durable on disk), tears
// the stalled survivors down, and gang-relaunches every rank with
// -recover. The relaunched fleet must negotiate a resume epoch, replay
// to completion, and report digests byte-identical to an uninterrupted
// in-process mem run — across a real process boundary, nothing but the
// checkpoint files can carry the pre-kill state.

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"repro/internal/wire"
)

// RecoveryMultiprocSpec describes one kill-and-relaunch deployment.
// The embedded FleetSpec's Procs must be >= 3, and its Timeout bounds
// each of the two generations.
type RecoveryMultiprocSpec struct {
	FleetSpec

	Rows   int // >= 2
	Words  int // >= Procs
	Epochs int // > KillEpoch

	KillRank  int // rank that gets SIGKILLed
	KillEpoch int // workload epoch the kill lands in (>= 1)

	Root string // checkpoint root ("" = temp dir)
}

// RecoveryMultiprocResult is a successful kill-and-relaunch outcome.
type RecoveryMultiprocResult struct {
	Digest      string // digest all relaunched processes agreed on
	MemDigest   string // in-process mem oracle digest
	ResumeEpoch int    // workload epoch the relaunched fleet resumed at
	Casualty    int    // rank the doomed phase attributed the death to
	Ckpts       int64  // checkpoint frames written by the relaunched fleet
	CkptSkipped int64  // segments elided as unchanged by the relaunched fleet
	Rehomes     int64
	Wall        time.Duration
}

// recovArgs is what the recovery workload adds to a rank's fleet argv.
func (spec RecoveryMultiprocSpec) recovArgs(rank int, resume bool) []string {
	args := []string{
		"-app", "recov",
		"-rows", strconv.Itoa(spec.Rows),
		"-problem", strconv.Itoa(spec.Words),
		"-epochs", strconv.Itoa(spec.Epochs),
		"-ckpt-root", spec.Root,
	}
	if resume {
		args = append(args, "-recover")
	} else if rank == spec.KillRank {
		// The target freezes mid-write upon entering KillEpoch, so
		// the SIGKILL lands mid-epoch by construction — a fast fleet
		// (the whole workload runs in milliseconds) would otherwise
		// race past the kill and finish cleanly.
		args = append(args, "-stall-at", strconv.Itoa(spec.KillEpoch))
	}
	return args
}

// RunRecoveryMultiproc performs one full kill-and-relaunch; see the
// file comment for the protocol.
func RunRecoveryMultiproc(spec RecoveryMultiprocSpec) (res RecoveryMultiprocResult, err error) {
	res.Casualty = -1
	if spec.Procs < 3 || spec.Rows < 2 || spec.Words < spec.Procs ||
		spec.KillEpoch < 1 || spec.Epochs <= spec.KillEpoch ||
		spec.KillRank < 0 || spec.KillRank >= spec.Procs {
		return res, fmt.Errorf("harness: recovery multiproc: need procs >= 3, rows >= 2, words >= procs, 1 <= killEpoch < epochs, killRank in 0..procs-1")
	}
	cleanup, err := spec.resolve()
	if err != nil {
		return res, err
	}
	defer func() { cleanup(err == nil) }()
	if spec.Root == "" {
		if spec.Root, err = os.MkdirTemp("", "lots-recovery-mp-*"); err != nil {
			return res, err
		}
		defer os.RemoveAll(spec.Root)
	}

	start := time.Now()

	// Phase 1: the doomed fleet. Bring it up, let it run to KillEpoch,
	// SIGKILL the target, and tear the stalled survivors down. The kill
	// waits until EVERY rank has entered KillEpoch: a rank announces an
	// epoch only after the previous epoch's checkpoint (and its buddy
	// ack) landed, so the whole fleet's stores are provably restorable
	// past KillEpoch-1 before the target dies. The target itself runs
	// with -stall-at KillEpoch: it announces the epoch after a partial
	// write and then freezes, pinning the kill window open.
	if res.Casualty, err = runDoomedFleet(spec); err != nil {
		return res, err
	}
	if res.Casualty != spec.KillRank {
		return res, fmt.Errorf("harness: recovery multiproc: death attributed to rank %d, want %d", res.Casualty, spec.KillRank)
	}

	// Phase 2: the gang relaunch. Every rank comes back with -recover,
	// negotiates the resume epoch from the stores, replays, digests.
	digests, err := runRelaunchedFleet(spec)
	if err != nil {
		return res, err
	}
	res.Wall = time.Since(start)
	res.ResumeEpoch = int(digests[0].Epoch)
	res.Digest = digests[0].Digest
	for _, c := range digests {
		if int(c.Epoch) != res.ResumeEpoch {
			return res, fmt.Errorf("harness: recovery multiproc: rank %d resumed at epoch %d, rank 0 at %d", c.Node, c.Epoch, res.ResumeEpoch)
		}
		if c.Digest != res.Digest {
			return res, &DigestMismatchError{Detail: fmt.Sprintf("across relaunched processes: node %d %s vs node 0 %s", c.Node, c.Digest, res.Digest)}
		}
		res.Ckpts += c.Ckpts
		res.CkptSkipped += c.CkptSkipped
		res.Rehomes += c.Rehomes
	}
	if res.ResumeEpoch < spec.KillEpoch || res.ResumeEpoch >= spec.Epochs {
		return res, fmt.Errorf("harness: recovery multiproc: resumed at epoch %d, want within [%d, %d)", res.ResumeEpoch, spec.KillEpoch, spec.Epochs)
	}

	// The oracle: an uninterrupted in-process mem run of the same
	// workload must produce byte-identical final state.
	mem, err := RecoveryMemDigest(spec.Procs, spec.Rows, spec.Words, spec.Epochs)
	if err != nil {
		return res, fmt.Errorf("harness: recovery multiproc: mem oracle: %w", err)
	}
	res.MemDigest = mem
	if mem != res.Digest {
		return res, &DigestMismatchError{Detail: fmt.Sprintf("relaunched digest %s != mem oracle %s (checkpoints did not carry all state?)", res.Digest, mem)}
	}
	return res, nil
}

// runDoomedFleet brings up the full fleet, kills the target once every
// rank has entered KillEpoch, tears the rest down, and returns the
// rank the exit order names as the first casualty.
func runDoomedFleet(spec RecoveryMultiprocSpec) (int, error) {
	f, err := spec.launch(func(rank int) []string { return spec.recovArgs(rank, false) })
	if err != nil {
		return -1, err
	}
	defer f.reap() //nolint:errcheck // best-effort teardown
	if _, err := f.bringUp(); err != nil {
		return -1, err
	}

	// Wait for every rank to announce KillEpoch (or beyond).
	type outcome struct {
		node int
		err  error
	}
	ch := make(chan outcome, spec.Procs)
	for i, p := range f.procs {
		go func(i int, p *nodeProc) {
			for {
				c, err := awaitFrame(p, wire.CtrlEpoch, f.deadline.C)
				if err != nil {
					ch <- outcome{i, err}
					return
				}
				if int(c.Epoch) >= spec.KillEpoch {
					ch <- outcome{i, nil}
					return
				}
			}
		}(i, p)
	}
	for range f.procs {
		o := <-ch
		if o.err != nil {
			return -1, &PeerDeathError{Node: o.node, Phase: "doomed-run", Cause: o.err}
		}
	}
	// From here on nobody awaits frames; drain each pipe so a fast
	// fleet emitting further epoch frames cannot wedge its reader
	// goroutine on the buffered channel.
	for _, p := range f.procs {
		go func(p *nodeProc) {
			for range p.frames { //nolint:revive // discard
			}
		}(p)
	}

	// The kill. Then tear down the survivors — the launcher IS the
	// death detector: the target's exit is unambiguous (its control
	// pipe closes and its process reaps first), and the survivors are
	// stalled behind a barrier the dead rank will never reach.
	if err := f.kill(spec.KillRank); err != nil {
		return -1, err
	}
	select {
	case <-f.procs[spec.KillRank].exited:
	case <-time.After(10 * time.Second):
		return -1, fmt.Errorf("harness: recovery multiproc: killed rank %d did not exit", spec.KillRank)
	}
	if err := f.reap(); err != nil {
		return -1, err
	}
	casualty, _ := firstCasualty(f.procs, -1, nil)
	return casualty, nil
}

// runRelaunchedFleet restarts every rank with -recover and collects
// their digest frames.
func runRelaunchedFleet(spec RecoveryMultiprocSpec) ([]wire.Ctrl, error) {
	f, err := spec.launch(func(rank int) []string { return spec.recovArgs(rank, true) })
	if err != nil {
		return nil, err
	}
	defer f.reap() //nolint:errcheck // best-effort teardown
	if _, err := f.bringUp(); err != nil {
		return nil, err
	}
	digests, _, err := f.collect(wire.CtrlDigest, "run")
	if err != nil {
		return nil, err
	}
	return digests, f.finish()
}

// FormatRecoveryMultiproc renders a kill-and-relaunch outcome.
func FormatRecoveryMultiproc(w io.Writer, spec RecoveryMultiprocSpec, r RecoveryMultiprocResult) {
	fmt.Fprintf(w, "Multi-process recovery — SIGKILL rank %d at epoch %d of %d (%d lotsnode processes over %v)\n",
		spec.KillRank, spec.KillEpoch, spec.Epochs, spec.Procs, spec.Transport)
	fmt.Fprintf(w, "  first casualty attributed to rank %d; gang relaunch resumed at epoch %d\n", r.Casualty, r.ResumeEpoch)
	fmt.Fprintf(w, "  relaunched fleet: ckpts=%d skipped=%d rehomes=%d (%v wall)\n", r.Ckpts, r.CkptSkipped, r.Rehomes, r.Wall.Round(time.Millisecond))
	fmt.Fprintf(w, "  digests byte-identical across processes and vs the in-process mem oracle\n")
}
