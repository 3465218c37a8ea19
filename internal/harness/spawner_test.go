package harness

// Spawner argv construction, metrics parsing/verification, and the
// non-exec fleet path: a WrapSpawner("env") run with TLS + metrics +
// streamed stats exercises every observability hook RunMultiproc has
// without needing an sshd (the ssh path differs only in argv, which
// the unit tests below pin down).

import (
	"fmt"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	lots "repro"
	"repro/internal/stats"
	"repro/internal/stats/phases"
	"repro/internal/wire"
)

func TestExecSpawnerArgv(t *testing.T) {
	got := ExecSpawner{}.Argv(3, "/tmp/lotsnode", []string{"-id", "3", "-nodes", "4"})
	want := []string{"/tmp/lotsnode", "-id", "3", "-nodes", "4"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("argv = %q, want %q", got, want)
	}
}

func TestSSHSpawnerArgv(t *testing.T) {
	s := SSHSpawner{
		Hosts:   []string{"hostA", "hostB"},
		BinPath: "/remote/lotsnode",
		Extra:   []string{"-p", "2222"},
	}
	got := s.Argv(3, "/local/lotsnode", []string{"-timeout", "1m30s", "-logdir", "/var/log/with space"})
	want := []string{
		"ssh", "-o", "BatchMode=yes", "-p", "2222", "hostB",
		"/remote/lotsnode -timeout 1m30s -logdir '/var/log/with space'",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("argv = %q, want %q", got, want)
	}
	// Round-robin placement: rank 2 of 2 hosts lands back on hostA,
	// and with BinPath empty the launcher-side path is reused.
	got = SSHSpawner{Hosts: []string{"hostA", "hostB"}}.Argv(2, "/local/lotsnode", nil)
	want = []string{"ssh", "-o", "BatchMode=yes", "hostA", "/local/lotsnode"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("argv = %q, want %q", got, want)
	}
}

// TestShellQuote: the quoted form must survive a real shell round
// trip, because ssh hands the remote command to one.
func TestShellQuote(t *testing.T) {
	cases := []string{
		"plain", "", "with space", "don't", `a"b`, "$HOME", "semi;colon",
		"back`tick", "star*glob", "per%cent", "new\nline",
	}
	for _, in := range cases {
		out, err := exec.Command("sh", "-c", "printf %s "+shellQuote(in)).Output()
		if err != nil {
			t.Fatalf("sh choked on quoted %q: %v", in, err)
		}
		if string(out) != in {
			t.Errorf("shellQuote(%q) round-tripped to %q", in, out)
		}
	}
}

func TestWrapSpawnerArgv(t *testing.T) {
	s := WrapSpawner{Prefix: []string{"ip", "netns", "exec", "rank%r"}}
	got := s.Argv(2, "/tmp/lotsnode", []string{"-id", "2"})
	want := []string{"ip", "netns", "exec", "rank2", "/tmp/lotsnode", "-id", "2"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("argv = %q, want %q", got, want)
	}
}

// TestSpawnErrorNamesRank: when ranks cannot start, the error must say
// which ranks and via which spawner — the actionable part of a
// multi-host bring-up failure.
func TestSpawnErrorNamesRank(t *testing.T) {
	_, err := RunMultiproc(MultiprocSpec{
		App: AppSOR, Problem: 8, Seed: 42,
		FleetSpec: FleetSpec{
			Procs: 2, Transport: lots.TransportUDP,
			NodeBin: "/nonexistent/lotsnode-missing", Timeout: 30 * time.Second, LogDir: t.TempDir(),
		},
	})
	if err == nil {
		t.Fatal("RunMultiproc succeeded with a nonexistent binary")
	}
	for i := 0; i < 2; i++ {
		if !strings.Contains(err.Error(), fmt.Sprintf("spawning rank %d via exec", i)) {
			t.Errorf("error does not name rank %d: %v", i, err)
		}
	}
}

func TestParseMetrics(t *testing.T) {
	m, err := ParseMetrics("# HELP lots_msgs_sent_total x\n" +
		"lots_msgs_sent_total{node=\"2\"} 41\n" +
		"\n" +
		"lots_phase_epoch_ns{node=\"2\",phase=\"barrier_wait\",epoch=\"7\"} 1234\n")
	if err != nil {
		t.Fatal(err)
	}
	if m[`lots_msgs_sent_total{node="2"}`] != 41 {
		t.Errorf("parsed %v", m)
	}
	if m[`lots_phase_epoch_ns{node="2",phase="barrier_wait",epoch="7"}`] != 1234 {
		t.Errorf("parsed %v", m)
	}
	if _, err := ParseMetrics("garbage-without-value\n"); err == nil {
		t.Error("unparseable line accepted")
	}
	if _, err := ParseMetrics("lots_x_total{node=\"0\"} notanint\n"); err == nil {
		t.Error("non-integer sample accepted")
	}
}

// TestVerifyRankMetrics builds a synthetic complete scrape and then
// knocks out one sample at a time.
func TestVerifyRankMetrics(t *testing.T) {
	full := make(Metrics)
	for _, name := range stats.FieldNames() {
		full[fmt.Sprintf("%s%s_total{node=\"1\"}", stats.MetricPrefix, name)] = 1
	}
	for _, k := range phases.Kinds() {
		full[fmt.Sprintf("%sphase_ns_total{node=\"1\",phase=%q}", stats.MetricPrefix, k.String())] = 5
		full[fmt.Sprintf("%sphase_events_total{node=\"1\",phase=%q}", stats.MetricPrefix, k.String())] = 1
	}
	if err := VerifyRankMetrics(full, 1, true); err != nil {
		t.Fatalf("complete scrape rejected: %v", err)
	}
	if err := VerifyRankMetrics(full, 0, false); err == nil {
		t.Error("scrape for the wrong rank accepted")
	}
	counterKey := fmt.Sprintf("%smsgs_sent_total{node=\"1\"}", stats.MetricPrefix)
	delete(full, counterKey)
	if err := VerifyRankMetrics(full, 1, false); err == nil {
		t.Error("scrape missing a counter accepted")
	}
	full[counterKey] = 1
	bwKey := fmt.Sprintf("%sphase_ns_total{node=\"1\",phase=\"barrier_wait\"}", stats.MetricPrefix)
	full[bwKey] = 0
	if err := VerifyRankMetrics(full, 1, true); err == nil {
		t.Error("zero barrier-wait accepted with requirePhases")
	}
	if err := VerifyRankMetrics(full, 1, false); err != nil {
		t.Errorf("zero barrier-wait rejected without requirePhases: %v", err)
	}
}

// TestMultiprocObservability is the kitchen-sink fleet run: a non-exec
// spawner (env prefix — stream-transparent like ssh), launcher-issued
// per-rank TLS, per-rank /metrics endpoints scraped and verified by
// the harness, streamed CtrlStats frames, and relayed CtrlLog lines.
// Digest identity with the in-process mem run must hold through all
// of it.
func TestMultiprocObservability(t *testing.T) {
	const procs = 3
	var (
		mu         sync.Mutex
		statsSeen  = make(map[int]int)
		logLines   = make(map[int]int)
		sawCounter = make(map[int]bool)
	)
	res, err := RunMultiproc(MultiprocSpec{
		App: AppSOR, Problem: 16, Seed: 42,
		FleetSpec: FleetSpec{
			Procs: procs, Transport: lots.TransportTCP, TLS: true,
			Spawner: WrapSpawner{Prefix: []string{"env", "LOTS_RANK=%r"}},
			OnLog: func(node int, line string) {
				mu.Lock()
				defer mu.Unlock()
				if line != "" {
					logLines[node]++
				}
			},
			NodeBin: nodeBin(t), Timeout: 90 * time.Second, LogDir: t.TempDir(),
		},
		MetricsBase:   29310,
		StatsInterval: 25 * time.Millisecond,
		OnStats: func(node int, c wire.Ctrl) {
			mu.Lock()
			defer mu.Unlock()
			statsSeen[node]++
			for _, st := range c.Stats {
				if st.Name == "msgs_sent" && st.Val > 0 {
					sawCounter[node] = true
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest == "" || res.Digest != res.MemDigest {
		t.Fatalf("digest %q != mem digest %q", res.Digest, res.MemDigest)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < procs; i++ {
		if statsSeen[i] == 0 {
			t.Errorf("rank %d streamed no stats frames", i)
		}
		if !sawCounter[i] {
			t.Errorf("rank %d never reported msgs_sent > 0 in a stats frame", i)
		}
		if logLines[i] == 0 {
			t.Errorf("rank %d relayed no log lines", i)
		}
		if res.Nodes[i].MetricsAddr == "" {
			t.Errorf("rank %d has no metrics addr in its report", i)
		}
		if res.Nodes[i].StatsPath == "" {
			t.Errorf("rank %d has no persisted stats artifact", i)
		}
	}
}
