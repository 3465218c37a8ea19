package lots_test

// Kill-cell conformance for the checkpoint/recovery subsystem: a rank
// dies mid-epoch, the fleet gang-restarts from barrier-time
// checkpoints, and the resumed run must end byte-identical to an
// uninterrupted run of the plain protocol — on every transport, clean
// and under seeded chaos, with intact stores, a wiped store (buddy
// re-homing), and a degraded N-1 continue.

import (
	"fmt"
	"sync"
	"testing"

	lots "repro"
	"repro/internal/harness"
)

// recoverySpec is the pinned base scenario for the kill cells.
func recoverySpec() harness.RecoverySpec {
	return harness.RecoverySpec{
		Procs: 4, Rows: 4, Words: 16, Epochs: 6,
		KillRank: 2, KillEpoch: 3,
	}
}

// TestRecoveryRestart is the core scenario on the deterministic mem
// transport: same-size restart from intact stores.
func TestRecoveryRestart(t *testing.T) {
	res, err := harness.RecoveryCost(recoverySpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assert(); err != nil {
		t.Fatal(err)
	}
	if res.Resumed.Msgs >= res.Clean.Msgs {
		t.Logf("note: resumed run sent %d msgs vs clean %d (recovery overhead)", res.Resumed.Msgs, res.Clean.Msgs)
	}
}

// TestRecoveryKillCellMatrix runs the kill-and-recover scenario over
// the {mem, udp, tcp} x {clean, chaos} matrix with pinned seeds; every
// cell must resume at the same epoch and reproduce the oracle bytes.
func TestRecoveryKillCellMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-cell matrix is not short")
	}
	type cell struct {
		name  string
		kind  lots.TransportKind
		chaos int64
	}
	cells := []cell{
		{"mem", lots.TransportMem, 0},
		{"mem+chaos", lots.TransportMem, 42},
		{"udp", lots.TransportUDP, 0},
		{"udp+chaos", lots.TransportUDP, 42},
		{"tcp", lots.TransportTCP, 0},
		{"tcp+chaos", lots.TransportTCP, 42},
	}
	digests := make([]string, len(cells))
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func(i int, c cell) {
			defer wg.Done()
			spec := recoverySpec()
			spec.Transport = c.kind
			spec.ChaosSeed = c.chaos
			res, err := harness.RecoveryCost(spec)
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
				return
			}
			if err := res.Assert(); err != nil {
				t.Errorf("%s: %v", c.name, err)
				return
			}
			digests[i] = res.Resumed.Digest
		}(i, c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 1; i < len(cells); i++ {
		if digests[i] != digests[0] {
			t.Errorf("cell %s digest differs from %s", cells[i].name, cells[0].name)
		}
	}
}

// TestRecoveryWipedStoreRehomes destroys the dead rank's checkpoint
// directory before the restart: its chain must come back from the
// buddy replica, counted as re-homes.
func TestRecoveryWipedStoreRehomes(t *testing.T) {
	spec := recoverySpec()
	spec.WipeKilled = true
	res, err := harness.RecoveryCost(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assert(); err != nil {
		t.Fatal(err)
	}
	if res.Resumed.Rehomes == 0 {
		t.Fatal("wiped store restored without any re-home")
	}
}

// TestRecoveryDegradedContinue restarts with N-1 ranks: the dead
// rank's identity is orphaned and its objects are re-homed onto a
// survivor; the workload's values are fleet-size independent, so the
// bytes still match the oracle.
func TestRecoveryDegradedContinue(t *testing.T) {
	for _, wipe := range []bool{false, true} {
		spec := recoverySpec()
		spec.Degraded = true
		spec.WipeKilled = wipe
		res, err := harness.RecoveryCost(spec)
		if err != nil {
			t.Fatalf("wipe=%v: %v", wipe, err)
		}
		if err := res.Assert(); err != nil {
			t.Fatalf("wipe=%v: %v", wipe, err)
		}
	}
}

// TestRecoveryFreshStartWhenNoCheckpoints: a fleet resumed against an
// empty checkpoint root must agree on a fresh start (Recover returns
// 0) and complete the full run normally.
func TestRecoveryFreshStartWhenNoCheckpoints(t *testing.T) {
	const procs, words, epochs = 3, 12, 4
	cfg := lots.DefaultConfig(procs)
	cfg.Recovery = &lots.RecoveryOpts{Root: t.TempDir(), Resume: true}
	c, err := lots.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	digests := make([]string, procs)
	err = c.Run(func(n *lots.Node) {
		arr := lots.Alloc[int32](n, words)
		if resume := n.Recover(); resume != 0 {
			panic(fmt.Sprintf("node %d: Recover on empty root returned %d, want 0", n.ID(), resume))
		}
		for ep := 0; ep < epochs; ep++ {
			lo, hi := n.ID()*words/procs, (n.ID()+1)*words/procs
			for i := lo; i < hi; i++ {
				arr.Set(i, int32(ep*100+i))
			}
			n.Barrier()
		}
		var b []byte
		for i := 0; i < words; i++ {
			b = fmt.Appendf(b, "%d ", arr.Get(i))
		}
		digests[n.ID()] = string(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	for q := 1; q < procs; q++ {
		if digests[q] != digests[0] {
			t.Fatalf("node %d diverged after fresh start", q)
		}
	}
	want := ""
	for i := 0; i < words; i++ {
		want += fmt.Sprintf("%d ", int32((epochs-1)*100+i))
	}
	if digests[0] != want {
		t.Fatalf("fresh-start run produced %q, want %q", digests[0], want)
	}
}

// TestRecoveryCheckpointsIncremental pins the zero-byte property on an
// undisturbed run: with recovery on, a read-mostly workload's
// checkpoint stream must elide most segments.
func TestRecoveryCheckpointsIncremental(t *testing.T) {
	res, err := harness.RecoveryCost(recoverySpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assert(); err != nil {
		t.Fatal(err)
	}
	// One row is rewritten per workload epoch and each rank homes one
	// row, so the fleet-wide skip counts are exactly predictable. Each
	// workload epoch runs two barriers, hence two checkpoints: at the
	// write barrier the rows written in some earlier epoch but not this
	// one (written-1 of them, written = min(ep+1, rows)) are zero-byte
	// unchanged segments; at the verify barrier nothing was written, so
	// all `written` rows are skips. Never-written rows are zero-flag
	// segments, not skips. The `hot` array is republished with identical
	// bytes every epoch, so after its first checkpoint it always skips:
	// 1 skip in epoch 0 (verify barrier only), 2 per epoch after. The
	// first post-restart checkpoint is a full re-base and skips nothing,
	// but its verify barrier skips normally.
	spec := res.Spec
	writtenAt := func(ep int) int64 {
		if ep+1 > spec.Rows {
			return int64(spec.Rows)
		}
		return int64(ep + 1)
	}
	skipsAt := func(ep int) int64 {
		hot := int64(2)
		if ep == 0 {
			hot = 1
		}
		return 2*writtenAt(ep) - 1 + hot
	}
	var wantDoomed, wantResumed int64
	for ep := 0; ep < spec.KillEpoch; ep++ {
		wantDoomed += skipsAt(ep)
	}
	wantResumed = writtenAt(res.ResumeEpoch) + 1 // re-based write barrier: 0, its verify barrier skips all
	for ep := res.ResumeEpoch + 1; ep < spec.Epochs; ep++ {
		wantResumed += skipsAt(ep)
	}
	if res.Doomed.CkptSkipped != wantDoomed {
		t.Errorf("doomed run skipped %d segments, want %d", res.Doomed.CkptSkipped, wantDoomed)
	}
	if res.Resumed.CkptSkipped != wantResumed {
		t.Errorf("resumed run skipped %d segments, want %d (first post-restart checkpoint must re-base)",
			res.Resumed.CkptSkipped, wantResumed)
	}
}

// TestRecoveryHomeMigratesBack moves one object's home 1 → 2 → 1, one
// sole writer per epoch, then restarts from the checkpoints. Rank 1
// checkpointed the object at version 1 before it left; rank 2 changed
// its bytes; rank 1 takes the home back with a write that moves no
// byte, so nothing bumps. The version rank 1 then carries must be the
// one its fetch reply brought (2): were it still its own 1, the
// checkpointer would take the object for unchanged since rank 1's last
// cut, and the restore would resolve rank 1's old bytes.
func TestRecoveryHomeMigratesBack(t *testing.T) {
	const procs, epochs = 3, 3
	root := t.TempDir()
	want := []int32{100, 101, 101} // x[0] after each epoch
	mkcfg := func(resume bool) lots.Config {
		cfg := lots.DefaultConfig(procs)
		cfg.Recovery = &lots.RecoveryOpts{Root: root, Resume: resume}
		return cfg
	}
	c, err := lots.NewCluster(mkcfg(false))
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(func(n *lots.Node) {
		x := lots.Alloc[int32](n, 4) // id 1: homed at rank 1
		for ep := 0; ep < epochs; ep++ {
			if n.ID() == 1+ep%2 {
				x.Set(0, want[ep])
			}
			n.Barrier()
			if got := x.Get(0); got != want[ep] {
				panic(fmt.Sprintf("node %d epoch %d: x[0] = %d, want %d", n.ID(), ep, got, want[ep]))
			}
			n.Barrier()
		}
	})
	c.Close()
	if err != nil {
		t.Fatal(err)
	}

	c, err = lots.NewCluster(mkcfg(true))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := make([]int32, procs)
	err = c.Run(func(n *lots.Node) {
		x := lots.Alloc[int32](n, 4)
		if resume := n.Recover(); resume != 2*epochs {
			panic(fmt.Sprintf("node %d: Recover returned %d, want %d", n.ID(), resume, 2*epochs))
		}
		got[n.ID()] = x.Get(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range got {
		if v != want[epochs-1] {
			t.Errorf("node %d: restored x[0] = %d, want %d", r, v, want[epochs-1])
		}
	}
}
