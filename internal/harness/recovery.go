package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	lots "repro"
	"repro/internal/platform"
)

// The recovery experiment proves the checkpoint/recovery subsystem
// end-to-end inside one process: a cluster runs an epoch workload with
// barrier-time incremental checkpoints, one rank dies mid-epoch (it
// stops participating and the cluster is torn down, exactly what a
// SIGKILL does to the protocol), and a gang-restarted cluster resumes
// from the newest commonly restorable epoch. The restarted run must
// end byte-identical to an uninterrupted run of the paper's plain
// protocol — recovery is correct only if it is invisible in the bytes.

// RecoverySpec parameterizes one kill-and-recover scenario.
type RecoverySpec struct {
	Procs  int // cluster size (>= 3)
	Rows   int // shared matrix rows (>= 2; read-mostly: 1 row/epoch changes)
	Words  int // int32 words per row, partitioned across writers
	Epochs int // total barrier epochs the workload wants

	KillRank  int // rank that dies
	KillEpoch int // epoch it dies in, mid-write (>= 2)

	Transport lots.TransportKind
	ChaosSeed int64 // non-zero: seeded fault injection on the interconnect

	WipeKilled bool // destroy the dead rank's checkpoint dir before restart
	Degraded   bool // restart with Procs-1 ranks instead of a full fleet
	Leases     bool // layer the lease coherence extension over recovery

	Root     string // checkpoint root; empty means a fresh temp dir
	Platform platform.Profile
}

// RecoveryCell is one phase's outcome.
type RecoveryCell struct {
	SimTime     time.Duration
	Msgs        int64
	Ckpts       int64 // checkpoint frames written
	CkptBytes   int64 // object bytes serialized into checkpoints
	CkptSkipped int64 // segments elided because their version never moved
	Rehomes     int64 // owners restored from a peer's replica
	LeaseHits   int64 // leased copies kept across a barrier (Leases runs)
	Digest      string
}

// RecoveryResult is the full scenario outcome.
type RecoveryResult struct {
	Spec        RecoverySpec
	Clean       RecoveryCell // uninterrupted run of the plain protocol (the oracle)
	Doomed      RecoveryCell // the killed run, counters up to the death
	Resumed     RecoveryCell // the gang-restarted run
	ResumeEpoch int          // epoch the restarted ranks resumed at
}

// recoveryElem is the closed-form element value written at epoch ep.
func recoveryElem(ep, i int) int32 { return int32(ep*1_000_003 + i*7 + 1) }

// recoveryLastWrite returns the last epoch <= ep that rewrote row, or
// -1 if the row is still untouched (epoch e writes row e % rows).
func recoveryLastWrite(row, ep, rows int) int {
	if ep < row {
		return -1
	}
	return ep - (ep-row)%rows
}

// wordSlice partitions words across procs writers.
func wordSlice(words, procs, rank int) (lo, hi int) {
	return rank * words / procs, (rank + 1) * words / procs
}

// recoveryWorkload is the shared epoch loop: every epoch each rank
// rewrites its slice of one row (values depend only on epoch and
// position, so the final bytes are independent of the fleet size),
// barriers, verifies the whole matrix against the closed form, and
// barriers again — the second barrier fences the verification reads
// from the next epoch's writes, which would otherwise race them at
// the home. Two protocol barriers per workload epoch means Recover's
// protocol-epoch result maps to workload epoch resume/2 (the restore
// point is always a verify barrier, so the division is exact).
// doomRank dies at doomEpoch: it writes half its slice and vanishes
// (doomRank < 0 disables).
//
// Besides the matrix, rank 0 re-publishes a `hot` array with identical
// bytes every epoch — the read-mostly pattern the lease extension
// exists for. On Leases runs the readers' copies revalidate instead of
// re-fetching (LeaseHits accrue before and after the restart); on all
// runs the unchanged bytes make the hot checkpoints zero-cost skips.
func (spec RecoverySpec) recoveryWorkload(n *lots.Node, doomRank, doomEpoch int,
	onDeath func(), preBarrier func(rank, ep int), resumes, digests []string) {
	rows, words := spec.Rows, spec.Words
	m := lots.AllocMatrix[int32](n, rows, words)
	hot := lots.Alloc[int32](n, words)
	resume := 0
	if n.Recovering() {
		resume = n.Recover() / 2
	}
	resumes[n.ID()] = fmt.Sprint(resume)
	for ep := resume; ep < spec.Epochs; ep++ {
		row := ep % rows
		lo, hi := wordSlice(words, n.N(), n.ID())
		if n.ID() == doomRank && ep == doomEpoch {
			// Die mid-epoch: a partial write that never reaches a
			// barrier, then silence. The barrier manager will wait for
			// this rank forever — the survivors stall exactly as they
			// would behind a SIGKILLed peer. The epoch is still announced
			// first: a multi-process launcher kills on that announcement,
			// and the announcement doubles as the proof that this rank's
			// previous-epoch checkpoint is durable (Barrier returned).
			v := m.RowViewRW(row)
			for i := lo; i < lo+(hi-lo)/2; i++ {
				v.Set(i, recoveryElem(ep, i))
			}
			v.Release()
			if preBarrier != nil {
				preBarrier(n.ID(), ep)
			}
			onDeath()
			return
		}
		v := m.RowViewRW(row)
		for i := lo; i < hi; i++ {
			v.Set(i, recoveryElem(ep, i))
		}
		v.Release()
		if n.ID() == 0 {
			hv := hot.ViewRW(0, words)
			for i := 0; i < words; i++ {
				hv.Set(i, int32(7*i+1))
			}
			hv.Release()
		}
		if preBarrier != nil {
			preBarrier(n.ID(), ep)
		}
		n.Barrier()
		for r := 0; r < rows; r++ {
			rv := m.RowView(r)
			for i := 0; i < words; i++ {
				want := int32(0)
				if last := recoveryLastWrite(r, ep, rows); last >= 0 {
					want = recoveryElem(last, i)
				}
				if got := rv.At(i); got != want {
					panic(fmt.Sprintf("recovery: node %d epoch %d: row %d[%d] = %d, want %d",
						n.ID(), ep, r, i, got, want))
				}
			}
			rv.Release()
		}
		for i := 0; i < words; i++ {
			if got := hot.Get(i); got != int32(7*i+1) {
				panic(fmt.Sprintf("recovery: node %d epoch %d: hot[%d] = %d, want %d",
					n.ID(), ep, i, got, 7*i+1))
			}
		}
		n.Barrier()
	}
	h := sha256.New()
	for r := 0; r < rows; r++ {
		rv := m.RowView(r)
		for i := 0; i < words; i++ {
			fmt.Fprintf(h, "%d ", rv.At(i))
		}
		rv.Release()
	}
	for i := 0; i < words; i++ {
		fmt.Fprintf(h, "%d ", hot.Get(i))
	}
	digests[n.ID()] = hex.EncodeToString(h.Sum(nil))
}

// RunRecoveryNode runs the recovery epoch workload on one node of an
// already-joined cluster — the per-process body of the multi-process
// recovery deployment (cmd/lotsnode -app recov). onEpoch, when
// non-nil, fires as each workload epoch is entered, after the previous
// epoch's checkpoints are durable and before the write barrier — the
// launcher's kill trigger. stallAt >= 0 makes this rank freeze forever
// upon entering that epoch, right after a partial write and the epoch
// announcement: the launcher's SIGKILL then lands mid-epoch by
// construction instead of racing a fast fleet to the finish line.
// Returns the workload epoch the node resumed at (0 on a fresh run)
// and the final digest.
func RunRecoveryNode(n *lots.Node, rows, words, epochs, stallAt int, onEpoch func(ep int)) (int, string) {
	spec := RecoverySpec{Rows: rows, Words: words, Epochs: epochs}
	resumes := make([]string, n.N())
	digests := make([]string, n.N())
	var pre func(rank, ep int)
	if onEpoch != nil {
		pre = func(rank, ep int) { onEpoch(ep) }
	}
	doomRank := -1
	if stallAt >= 0 {
		doomRank = n.ID()
	}
	spec.recoveryWorkload(n, doomRank, stallAt, func() { select {} }, pre, resumes, digests)
	// Leave barrier, event-only on purpose: a rank that returns is free
	// to EXIT ITS PROCESS, after which it can no longer serve object
	// fetches or buddy checkpoint acks — and digesting reads peers'
	// objects while the final consistency barrier's checkpoint still
	// awaits its buddy's ack after release. RunBarrier synchronizes
	// without a consistency action, so it neither checkpoints (the
	// counters tested against the closed form stay exact) nor leaves
	// any post-release work a peer's exit could strand.
	n.RunBarrier()
	resume := 0
	fmt.Sscan(resumes[n.ID()], &resume) //nolint:errcheck // workload wrote the value itself
	return resume, digests[n.ID()]
}

// RecoveryMemDigest runs the recovery workload in-process on the mem
// transport with no recovery machinery — the oracle a multi-process
// recovery deployment's final bytes must match.
func RecoveryMemDigest(procs, rows, words, epochs int) (string, error) {
	cell, err := RecoverySpec{Procs: procs, Rows: rows, Words: words, Epochs: epochs}.oracle()
	return cell.Digest, err
}

// oracle is the uninterrupted run: the paper's plain protocol, no
// recovery machinery at all, on the deterministic mem transport.
func (spec RecoverySpec) oracle() (RecoveryCell, error) {
	cfg := lots.DefaultConfig(spec.Procs)
	if spec.Platform.Name != "" {
		cfg.Platform = spec.Platform
	}
	c, err := lots.NewCluster(cfg)
	if err != nil {
		return RecoveryCell{}, err
	}
	defer c.Close()
	resumes := make([]string, spec.Procs)
	digests := make([]string, spec.Procs)
	err = c.Run(func(n *lots.Node) {
		spec.recoveryWorkload(n, -1, -1, nil, nil, resumes, digests)
	})
	if err != nil {
		return RecoveryCell{}, fmt.Errorf("recovery: oracle run: %w", err)
	}
	d, err := sameDigests("oracle", digests)
	if err != nil {
		return RecoveryCell{}, err
	}
	return recoveryCell(c, d), nil
}

// recoveryCell snapshots one phase's cluster-wide counters.
func recoveryCell(c *lots.Cluster, digest string) RecoveryCell {
	t := c.Total()
	return RecoveryCell{
		SimTime: c.SimTime(), Msgs: t.MsgsSent,
		Ckpts: t.Ckpts, CkptBytes: t.CkptBytes, CkptSkipped: t.CkptSkipped,
		Rehomes: t.Rehomes, LeaseHits: t.LeaseHits, Digest: digest,
	}
}

// sameDigests returns the digest every node of a phase agreed on.
func sameDigests(phase string, digests []string) (string, error) {
	for q := 1; q < len(digests); q++ {
		if digests[q] != digests[0] {
			return "", fmt.Errorf("recovery: %s: node %d final state differs from node 0", phase, q)
		}
	}
	return digests[0], nil
}

// RecoveryCost runs the scenario: a clean oracle run, a run where
// KillRank dies at KillEpoch, and a gang restart that resumes from the
// checkpoints and must reproduce the oracle's bytes.
func RecoveryCost(spec RecoverySpec) (RecoveryResult, error) {
	res := RecoveryResult{Spec: spec}
	if spec.Procs < 3 || spec.Rows < 2 || spec.Words < spec.Procs ||
		spec.KillEpoch < 2 || spec.Epochs < spec.KillEpoch+2 ||
		spec.KillRank < 0 || spec.KillRank >= spec.Procs {
		return res, fmt.Errorf("recovery: need procs >= 3, rows >= 2, words >= procs, killEpoch >= 2, epochs >= killEpoch+2, killRank in 0..procs-1")
	}
	if spec.Platform.Name == "" {
		spec.Platform = platform.Test()
		res.Spec = spec
	}
	root := spec.Root
	if root == "" {
		dir, err := os.MkdirTemp("", "lots-recovery-*")
		if err != nil {
			return res, fmt.Errorf("recovery: %w", err)
		}
		defer os.RemoveAll(dir)
		root = dir
	}
	mkcfg := func(procs int) lots.Config {
		cfg := lots.DefaultConfig(procs)
		cfg.Platform = spec.Platform
		cfg.Transport = spec.Transport
		cfg.Leases = spec.Leases
		if spec.ChaosSeed != 0 {
			ch := lots.DefaultChaos(spec.ChaosSeed)
			cfg.Chaos = &ch
		}
		return cfg
	}
	// Phase 0: the oracle.
	var err error
	if res.Clean, err = spec.oracle(); err != nil {
		return res, err
	}

	// Phase 1: the doomed run. Checkpoints on; KillRank dies mid-epoch.
	// Once the survivors are stalled behind the dead rank's barrier the
	// cluster is torn down — their errors are the expected casualties.
	{
		cfg := mkcfg(spec.Procs)
		cfg.Recovery = lots.DefaultRecovery(root)
		c, err := lots.NewCluster(cfg)
		if err != nil {
			return res, err
		}
		resumes := make([]string, spec.Procs)
		digests := make([]string, spec.Procs)
		died := make(chan struct{})
		var stalled sync.WaitGroup
		stalled.Add(spec.Procs - 1)
		preBarrier := func(rank, ep int) {
			if ep == spec.KillEpoch && rank != spec.KillRank {
				stalled.Done()
			}
		}
		go func() {
			<-died
			stalled.Wait()
			// The survivors are at (or entering) the barrier the dead rank
			// will never reach; every checkpoint up to KillEpoch-1 is
			// already durable, because Barrier only returns after its
			// checkpoint (and the buddy's ack) lands.
			time.Sleep(50 * time.Millisecond)
			c.Close()
		}()
		err = c.Run(func(n *lots.Node) {
			spec.recoveryWorkload(n, spec.KillRank, spec.KillEpoch,
				func() { close(died) }, preBarrier, resumes, digests)
		})
		c.Close()
		if err == nil {
			return res, fmt.Errorf("recovery: doomed run completed cleanly — the kill never happened")
		}
		res.Doomed = recoveryCell(c, "")
	}

	if spec.WipeKilled {
		if err := os.RemoveAll(filepath.Join(root, fmt.Sprintf("rank-%02d", spec.KillRank))); err != nil {
			return res, fmt.Errorf("recovery: wiping killed rank's store: %w", err)
		}
	}

	// Phase 2: the gang restart. Fresh processes (a fresh cluster), same
	// checkpoint root, Resume on; degraded mode drops the dead rank and
	// remaps identities.
	{
		procs := spec.Procs
		ropts := &lots.RecoveryOpts{Root: root, Buddy: true, Resume: true}
		if spec.Degraded {
			procs = spec.Procs - 1
			ropts.OldNodes = spec.Procs
			for old := 0; old < spec.Procs; old++ {
				if old != spec.KillRank {
					ropts.RankMap = append(ropts.RankMap, old)
				}
			}
		}
		cfg := mkcfg(procs)
		cfg.Recovery = ropts
		c, err := lots.NewCluster(cfg)
		if err != nil {
			return res, err
		}
		resumes := make([]string, procs)
		digests := make([]string, procs)
		err = c.Run(func(n *lots.Node) {
			spec.recoveryWorkload(n, -1, -1, nil, nil, resumes, digests)
		})
		c.Close()
		if err != nil {
			return res, fmt.Errorf("recovery: restarted run: %w", err)
		}
		d, err := sameDigests("restart", digests)
		if err != nil {
			return res, err
		}
		res.Resumed = recoveryCell(c, d)
		if _, err := fmt.Sscan(resumes[0], &res.ResumeEpoch); err != nil {
			return res, fmt.Errorf("recovery: bad resume epoch %q", resumes[0])
		}
	}
	return res, nil
}

// Assert enforces the subsystem's acceptance bar.
func (r RecoveryResult) Assert() error {
	spec := r.Spec
	if r.Resumed.Digest != r.Clean.Digest {
		return fmt.Errorf("recovery: restarted digest %s != clean digest %s — recovery changed the bytes",
			r.Resumed.Digest, r.Clean.Digest)
	}
	if want := spec.KillEpoch; r.ResumeEpoch != want {
		return fmt.Errorf("recovery: resumed at epoch %d, want %d — a checkpoint was lost or ignored", r.ResumeEpoch, want)
	}
	if r.Doomed.Ckpts == 0 || r.Resumed.Ckpts == 0 {
		return fmt.Errorf("recovery: no checkpoints written (doomed %d, resumed %d)", r.Doomed.Ckpts, r.Resumed.Ckpts)
	}
	if r.Doomed.CkptSkipped == 0 || r.Resumed.CkptSkipped == 0 {
		return fmt.Errorf("recovery: incrementality never kicked in on a read-mostly workload (skipped: doomed %d, resumed %d)",
			r.Doomed.CkptSkipped, r.Resumed.CkptSkipped)
	}
	if spec.WipeKilled || spec.Degraded {
		if r.Resumed.Rehomes == 0 {
			return fmt.Errorf("recovery: lost store never re-homed from the buddy replica")
		}
	} else if r.Resumed.Rehomes != 0 {
		return fmt.Errorf("recovery: %d re-homes on a same-fleet restart with intact stores", r.Resumed.Rehomes)
	}
	return nil
}
