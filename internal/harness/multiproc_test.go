package harness

// Multi-process deployment tests: real OS processes (one lotsnode per
// rank) on localhost, both socket transports, digest congruence
// against the in-process mem run, and the peer-death exit path.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	lots "repro"
)

var (
	nodeBinOnce sync.Once
	nodeBinPath string
	nodeBinErr  error
)

// nodeBin builds cmd/lotsnode once per test process.
func nodeBin(t *testing.T) string {
	t.Helper()
	nodeBinOnce.Do(func() {
		dir, err := os.MkdirTemp("", "lotsnode-test-bin-")
		if err != nil {
			nodeBinErr = err
			return
		}
		nodeBinPath, nodeBinErr = BuildLotsnode(dir)
	})
	if nodeBinErr != nil {
		t.Skipf("cannot build lotsnode (no go toolchain?): %v", nodeBinErr)
	}
	return nodeBinPath
}

func testMultiproc(t *testing.T, kind lots.TransportKind, app AppName, problem int) {
	res, err := RunMultiproc(MultiprocSpec{
		App: app, Problem: problem, Seed: 42,
		FleetSpec: FleetSpec{
			Procs: 4, Transport: kind,
			NodeBin: nodeBin(t), Timeout: 90 * time.Second, LogDir: t.TempDir(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest == "" || res.Digest != res.MemDigest {
		t.Fatalf("digest %q != mem digest %q", res.Digest, res.MemDigest)
	}
	if len(res.Nodes) != 4 {
		t.Fatalf("%d node reports, want 4", len(res.Nodes))
	}
	for _, nr := range res.Nodes {
		if nr.Digest != res.Digest {
			t.Errorf("node %d digest %q differs", nr.Node, nr.Digest)
		}
		if nr.Msgs == 0 {
			t.Errorf("node %d reports zero messages — did it really run over the wire?", nr.Node)
		}
	}
}

func TestMultiprocUDP(t *testing.T) { testMultiproc(t, lots.TransportUDP, AppSOR, 16) }
func TestMultiprocTCP(t *testing.T) { testMultiproc(t, lots.TransportTCP, AppME, 4096) }

// TestMultiprocUDPChaosDigestIdentity is the cross-process fault cell
// the per-rank seed convention unlocks: 4 lotsnode processes over UDP,
// every rank injecting faults from RankChaosSeed(seed, rank), and the
// final digests must STILL be byte-identical across the processes and
// against the clean in-process mem run.
func TestMultiprocUDPChaosDigestIdentity(t *testing.T) {
	res, err := RunMultiproc(MultiprocSpec{
		App: AppSOR, Problem: 16, Seed: 42,
		FleetSpec: FleetSpec{
			Procs: 4, Transport: lots.TransportUDP, ChaosSeed: 7,
			NodeBin: nodeBin(t), Timeout: 2 * time.Minute, LogDir: t.TempDir(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != res.MemDigest {
		t.Fatalf("chaos-injected multi-process digest %q != clean mem digest %q", res.Digest, res.MemDigest)
	}
	for _, nr := range res.Nodes {
		if nr.Digest != res.Digest {
			t.Errorf("node %d digest differs under chaos", nr.Node)
		}
	}
}

// TestMultiprocTCPChaosRanksExitClean: TCP injects at the message
// level, in a wrapper above the socket, and a rank's exit must not
// discard what that wrapper still holds — a peer waiting on one of
// those replies would sit until the watchdog. Seeds 1 and 42 hung that
// way in most runs when NodeHandle.Close flushed only the socket.
func TestMultiprocTCPChaosRanksExitClean(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		res, err := RunMultiproc(MultiprocSpec{
			App: AppSOR, Problem: 32, Seed: 42,
			FleetSpec: FleetSpec{
				Procs: 4, Transport: lots.TransportTCP, ChaosSeed: seed,
				NodeBin: nodeBin(t), Timeout: 15 * time.Second, LogDir: t.TempDir(),
			},
		})
		if err != nil {
			t.Fatalf("chaos seed %d: %v", seed, err)
		}
		if res.Digest != res.MemDigest {
			t.Errorf("chaos seed %d: multi-process digest %q != clean mem digest %q", seed, res.Digest, res.MemDigest)
		}
	}
}

// TestMultiprocRemoteSwap runs the remote-disk-swapping extension
// across a real process boundary: rank 0's overflow spills to rank 1
// over the wire (the node process self-asserts at least one spill and
// exits non-zero otherwise), and the digests must still match the mem
// reference run.
func TestMultiprocRemoteSwap(t *testing.T) {
	res, err := RunMultiproc(MultiprocSpec{
		App: AppSOR, Problem: 32, Seed: 42,
		RemoteSwap: true,
		FleetSpec: FleetSpec{
			Procs: 4, Transport: lots.TransportUDP,
			NodeBin: nodeBin(t), Timeout: 2 * time.Minute, LogDir: t.TempDir(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != res.MemDigest {
		t.Fatalf("remote-swap digest %q != mem digest %q", res.Digest, res.MemDigest)
	}
}

// TestMultiprocPeerDeath kills one lotsnode right after readiness and
// asserts the launcher reports THAT node's death promptly — the
// regression test for "peer process died mid-barrier" previously
// having no exit path at all (the launcher would hang).
func TestMultiprocPeerDeath(t *testing.T) {
	start := time.Now()
	_, err := RunMultiproc(MultiprocSpec{
		App: AppSOR, Problem: 16, Seed: 42,
		FleetSpec: FleetSpec{
			Procs: 4, Transport: lots.TransportUDP,
			NodeBin: nodeBin(t), Timeout: 60 * time.Second, LogDir: t.TempDir(),
		},
		Kill: true, KillNode: 2,
	})
	if err == nil {
		t.Fatal("launcher succeeded despite a killed node")
	}
	var pd *PeerDeathError
	if !errors.As(err, &pd) {
		t.Fatalf("error %v is not a *PeerDeathError", err)
	}
	if pd.Node != 2 {
		t.Errorf("death attributed to node %d, want 2 (%v)", pd.Node, err)
	}
	if pd.Phase != "run" {
		t.Errorf("death phase %q, want \"run\"", pd.Phase)
	}
	// "Reports it rather than hanging": well inside the deadline.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("launcher took %v to report the death", elapsed)
	}
}

// TestMultiprocValidation: impossible specs fail fast, before any
// process is spawned.
func TestMultiprocValidation(t *testing.T) {
	fleetOf := func(procs int, kind lots.TransportKind) FleetSpec {
		return FleetSpec{Procs: procs, Transport: kind, NodeBin: "/nonexistent/lotsnode", LogDir: t.TempDir()}
	}
	if _, err := RunMultiproc(MultiprocSpec{App: AppSOR, Problem: 16, FleetSpec: fleetOf(1, lots.TransportUDP)}); err == nil {
		t.Error("1-process launch accepted")
	}
	if _, err := RunMultiproc(MultiprocSpec{App: AppSOR, Problem: 16, FleetSpec: fleetOf(4, lots.TransportMem)}); err == nil {
		t.Error("mem-transport launch accepted")
	}
	if _, err := RunMultiproc(MultiprocSpec{
		App: AppSOR, Problem: 16, FleetSpec: fleetOf(4, lots.TransportUDP), Kill: true, KillNode: 9,
	}); err == nil || !strings.Contains(err.Error(), "KillNode 9 out of range") {
		t.Errorf("out-of-range KillNode: got %v", err)
	}
	if _, err := ParseApp("bogus"); err == nil {
		t.Error("ParseApp accepted bogus app")
	}
	for _, a := range AllApps() {
		if got, err := ParseApp(strings.ToLower(string(a))); err != nil || got != a {
			t.Errorf("ParseApp(%q) = %q, %v", strings.ToLower(string(a)), got, err)
		}
	}
	// A log directory that does not exist yet is created, not reported
	// once per rank as a log file that cannot be opened.
	missing := fleetOf(2, lots.TransportUDP)
	missing.LogDir = filepath.Join(t.TempDir(), "not", "yet")
	_, err := RunMultiproc(MultiprocSpec{App: AppSOR, Problem: 16, FleetSpec: missing})
	if err == nil || strings.Contains(err.Error(), "log file") {
		t.Errorf("launch into a missing log dir: %v", err)
	}
	if st, serr := os.Stat(missing.LogDir); serr != nil || !st.IsDir() {
		t.Errorf("missing log dir not created: %v", serr)
	}
	// The doomed generation of the recovery deployment goes through the
	// same spawn path as an app run: every rank's failure is reported,
	// not only the first.
	_, err = RunRecoveryMultiproc(RecoveryMultiprocSpec{
		FleetSpec: fleetOf(3, lots.TransportUDP),
		Rows:      2, Words: 4, Epochs: 3, KillRank: 1, KillEpoch: 1,
	})
	for i := 0; i < 3; i++ {
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("spawning rank %d via exec", i)) {
			t.Errorf("doomed fleet with an unspawnable binary does not name rank %d: %v", i, err)
		}
	}
}

// TestMultiprocRecovery is the rank-kill chaos cell across REAL
// process boundaries: 4 lotsnode processes checkpoint at every
// barrier, rank 2 is SIGKILLed once the whole fleet has entered the
// kill epoch, the stalled survivors are torn down, and a gang relaunch
// with -recover must resume from the stores and finish with digests
// byte-identical to an uninterrupted in-process mem run. The doomed
// phase must also attribute the first casualty to the killed rank —
// the exit-order bookkeeping peer-death reporting relies on.
func TestMultiprocRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process recovery is not short")
	}
	testMultiprocRecovery(t, FleetSpec{Procs: 4, Transport: lots.TransportUDP})
}

// TestMultiprocRecoveryThroughFleetPath is the same deployment with
// what only the shared launcher path can give it: a non-exec spawner
// and launcher-issued per-rank TLS, both generations.
func TestMultiprocRecoveryThroughFleetPath(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process recovery is not short")
	}
	testMultiprocRecovery(t, FleetSpec{
		Procs: 4, Transport: lots.TransportTCP, TLS: true,
		Spawner: WrapSpawner{Prefix: []string{"env", "LOTS_RANK=%r"}},
	})
}

func testMultiprocRecovery(t *testing.T, fs FleetSpec) {
	fs.NodeBin, fs.Timeout, fs.LogDir = nodeBin(t), 90*time.Second, t.TempDir()
	spec := RecoveryMultiprocSpec{
		FleetSpec: fs,
		Rows:      4, Words: 16, Epochs: 6,
		KillRank: 2, KillEpoch: 3,
	}
	res, err := RunRecoveryMultiproc(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Casualty != spec.KillRank {
		t.Errorf("first casualty attributed to rank %d, want %d", res.Casualty, spec.KillRank)
	}
	if res.Digest != res.MemDigest {
		t.Fatalf("relaunched digest %q != mem oracle %q", res.Digest, res.MemDigest)
	}
	if res.ResumeEpoch < spec.KillEpoch || res.ResumeEpoch >= spec.Epochs {
		t.Errorf("resumed at epoch %d, want within [%d, %d)", res.ResumeEpoch, spec.KillEpoch, spec.Epochs)
	}
	if res.Ckpts == 0 || res.CkptSkipped == 0 {
		t.Errorf("relaunched fleet ckpts=%d skipped=%d, want both > 0", res.Ckpts, res.CkptSkipped)
	}
	if res.Rehomes != 0 {
		t.Errorf("%d re-homes on a same-fleet relaunch with intact stores", res.Rehomes)
	}
}
