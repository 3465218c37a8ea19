package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	lots "repro"
	"repro/internal/stats"
	"repro/internal/stats/phases"
)

// session is one set-up workload: a running cluster whose ranks have
// allocated and initialised their shared objects and run the warm-up
// epochs. Windows and verification run on it as further SPMD phases.
type session struct {
	wl      *workload
	sz      sizes
	seed    int64
	cluster *lots.Cluster
	bodies  []body
	epochs  int // epochs every rank has completed, warm-up included
	tmp     string
}

// setUp builds the cluster and runs everything that precedes the first
// steady epoch: NewCluster, allocation, initialisation, the first
// barrier and the warm-up epochs. The returned duration is setup_s.
func setUp(wl *workload, sz sizes, seed int64, outDir string) (*session, time.Duration, error) {
	t0 := time.Now()
	tmp, err := os.MkdirTemp(outDir, "tmp-"+wl.name+"-")
	if err != nil {
		return nil, 0, err
	}
	s := &session{wl: wl, sz: sz, seed: seed, tmp: tmp}
	cfg, err := wl.config(sz, tmp)
	if err != nil {
		s.close()
		return nil, 0, err
	}
	if s.cluster, err = lots.NewCluster(cfg); err != nil {
		s.close()
		return nil, 0, err
	}
	s.bodies = make([]body, cfg.Nodes)
	err = s.cluster.Run(func(n *lots.Node) {
		b := wl.newBody(n, sz, seed)
		s.bodies[n.ID()] = b
		r := newRecorder(n.ID(), false, n.Stats())
		r.origin = t0
		for e := 0; e < sz.Warmup; e++ {
			b.epoch(e, r)
		}
	})
	if err != nil {
		s.close()
		return nil, 0, err
	}
	s.epochs = sz.Warmup
	return s, time.Since(t0), nil
}

func (s *session) close() {
	if s.cluster != nil {
		s.cluster.Close()
	}
	os.RemoveAll(s.tmp)
}

// window is what one steady window measured.
type window struct {
	ranks    int
	epochs   int
	wall     time.Duration    // rank 0's clock, closed by a barrier
	epochCPU []int64          // process CPU time spent during each of rank 0's epochs
	mem      runtime.MemStats // deltas: Mallocs, TotalAlloc, NumGC
	counters []stats.Snapshot // per-rank deltas
	phaseNS  [][phases.NumKinds]int64
	recs     []*recorder
	calibMS  float64 // the host calibration kernel, run immediately before the window
}

// total returns the cluster-wide counter deltas.
func (w *window) total() stats.Snapshot {
	var t stats.Snapshot
	for _, c := range w.counters {
		t = t.Add(c)
	}
	return t
}

// spans returns every rank's recorded spans.
func (w *window) spans() [][]span {
	out := make([][]span, len(w.recs))
	for i, r := range w.recs {
		out[i] = r.spans()
	}
	return out
}

// merged returns one sorted slice of pick(recorder) over every rank.
func (w *window) merged(pick func(*recorder) []int64) []int64 {
	var all []int64
	for _, r := range w.recs {
		all = append(all, pick(r)...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// runWindow runs steady epochs for at least d of rank 0's clock, or
// exactly maxEpochs epochs when maxEpochs > 0, and measures them. The
// ranks agree on where to stop through limit: rank 0 publishes it one
// epoch ahead, before entering that epoch's closing barrier, so every
// rank reads the same value once the barrier lets it go.
func (s *session) runWindow(d time.Duration, maxEpochs int, traced bool) (*window, error) {
	ranks := len(s.bodies)
	w := &window{ranks: ranks, recs: make([]*recorder, ranks),
		phaseNS: make([][phases.NumKinds]int64, ranks)}
	for i := range w.recs {
		w.recs[i] = newRecorder(i, traced, s.cluster.Node(i).Stats())
	}
	var limit atomic.Int64
	limit.Store(math.MaxInt64)
	if maxEpochs > 0 {
		limit.Store(int64(maxEpochs))
	}

	runtime.GC()
	w.calibMS = calibrate()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := s.cluster.Snapshots()
	for i := range w.phaseNS {
		w.phaseNS[i], _ = s.cluster.Node(i).Phases().Totals()
	}
	cpu0 := processCPU()
	t0 := time.Now()

	first := s.epochs
	err := s.cluster.Run(func(n *lots.Node) {
		b, r := s.bodies[n.ID()], w.recs[n.ID()]
		r.origin = t0
		last := r.now()
		lastCPU := cpu0
		for e := 0; int64(e) < limit.Load(); e++ {
			r.epoch = int32(e)
			b.epoch(first+e, r)
			now := r.now()
			r.epochNS = append(r.epochNS, now-last)
			last = now
			if n.ID() == 0 {
				cpu := processCPU()
				w.epochCPU = append(w.epochCPU, int64(cpu-lastCPU))
				lastCPU = cpu
			}
			if n.ID() == 0 && maxEpochs == 0 && now >= int64(d) && limit.Load() == math.MaxInt64 {
				limit.Store(int64(e) + 2)
			}
		}
	})
	for _, ns := range w.recs[0].epochNS {
		w.wall += time.Duration(ns)
	}
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	w.mem.Mallocs = m1.Mallocs - m0.Mallocs
	w.mem.TotalAlloc = m1.TotalAlloc - m0.TotalAlloc
	w.mem.NumGC = m1.NumGC - m0.NumGC
	after := s.cluster.Snapshots()
	w.counters = make([]stats.Snapshot, ranks)
	for i := range after {
		w.counters[i] = after[i].Sub(before[i])
		ns, _ := s.cluster.Node(i).Phases().Totals()
		for k := range ns {
			w.phaseNS[i][k] = ns[k] - w.phaseNS[i][k]
		}
	}
	w.epochs = len(w.recs[0].epochNS)
	s.epochs += w.epochs
	return w, nil
}

// verification is the outcome of checking a workload's outputs.
type verification struct {
	attempted, failed int
}

// verify runs every rank's verifier outside any timed region and adds
// one unit for cross-rank digest equality. A run that ends in a
// NodeError fails every unit.
func (s *session) verify(corrupt bool) verification {
	verdicts := make([]verdict, len(s.bodies))
	err := s.cluster.Run(func(n *lots.Node) {
		b := s.bodies[n.ID()]
		if corrupt {
			b.corrupt()
		}
		verdicts[n.ID()] = b.verify(s.epochs)
	})
	var v verification
	for _, rv := range verdicts {
		v.attempted += rv.attempted
		v.failed += rv.failed
	}
	v.attempted++ // the digest unit
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", s.wl.name, err)
		return verification{attempted: max(v.attempted, 1), failed: max(v.attempted, 1)}
	}
	for _, rv := range verdicts[1:] {
		if rv.digest != verdicts[0].digest {
			v.failed++
			break
		}
	}
	return v
}

// timeOneSetUp sets the workload up, closes it and returns how long the
// set-up took in seconds.
func timeOneSetUp(wl *workload, sz sizes, seed int64, outDir string) (float64, error) {
	s, d, err := setUp(wl, sz, seed, outDir)
	if err != nil {
		return 0, err
	}
	s.close()
	return d.Seconds(), nil
}

// minSetUps is how many set-ups timeSetUps times however long they take.
const minSetUps = 2

// timeSetUps times set-ups, one after the other, for half of
// sz.SetupSeconds and at least minSetUps of them. An untraced run calls
// it before its session and again after, so that the samples straddle
// the window: a set-up lasts a few epochs, and a handful in a row all
// land wherever the host's speed happens to be.
func (rc runConfig) timeSetUps() ([]float64, error) {
	var times []float64
	t0 := time.Now()
	for len(times) < minSetUps || time.Since(t0).Seconds() < rc.sz.SetupSeconds/2 {
		d, err := rc.timeSetUp()
		if err != nil {
			return nil, err
		}
		times = append(times, d)
	}
	return times, nil
}
