package main

import (
	"sort"

	"repro/internal/stats/phases"
)

// quiet is the first decile: the value a timing takes while the host is
// not slowing the process down.
const quiet = 0.10

// endToEndMetrics turns an untraced steady window into the end-to-end
// metrics. setupS and rssMiB are measured around it by the caller.
func endToEndMetrics(w *window, setupS, rssMiB float64) map[string]float64 {
	e := float64(w.epochs)
	t := w.total()
	return map[string]float64{
		"setup_s":              setupS,
		"epochs_per_s":         quietRate(w.recs[0].epochNS),
		"epoch_ms_p10":         float64(percentile(w.merged(func(r *recorder) []int64 { return r.epochNS }), quiet)) / 1e6,
		"cpu_ms_per_epoch_p10": float64(percentile(sortedCopy(w.epochCPU), quiet)) / 1e6,
		"allocs_per_epoch":     float64(w.mem.Mallocs) / e,
		"alloc_KB_per_epoch":   float64(w.mem.TotalAlloc) / 1024 / e,
		"wire_KB_per_epoch":    float64(t.BytesSent) / 1024 / e,
		"msgs_per_epoch":       float64(t.MsgsSent) / e,
		"peak_rss_MB":          rssMiB,
	}
}

// quietRate is the epoch rate sustained over the window's quietest
// stretches: every run of k consecutive epochs (k = a twentieth of the
// window, so about a second of a 20 s window) is timed, and the rate is
// k over the first decile of those times. Unlike a single epoch's time
// a stretch spans garbage collections, so allocation shows in it.
func quietRate(epochNS []int64) float64 {
	k := max(len(epochNS)/20, 1)
	var stretches []int64
	var sum int64
	for i, ns := range epochNS {
		sum += ns
		if i >= k {
			sum -= epochNS[i-k]
		}
		if i >= k-1 {
			stretches = append(stretches, sum)
		}
	}
	return float64(k) / (float64(percentile(sortedCopy(stretches), quiet)) / 1e9)
}

// spanStats is the traced window's spans folded by kind.
type spanStats struct {
	selfNS  [numKinds]float64 // summed self time, all ranks
	count   [numKinds]float64
	dur     [numKinds][]int64 // every span's duration, sorted
	phaseNS [2][]int64        // kPhase durations by tag, sorted
	wallNS  float64           // summed per-rank epoch wall time
}

// foldSpans folds the window's spans; perRank is w.spans().
func foldSpans(w *window, perRank [][]span) *spanStats {
	st := &spanStats{}
	for rank, r := range w.recs {
		sp := perRank[rank]
		for i, self := range selfTimes(sp) {
			s := sp[i]
			st.selfNS[s.Kind] += float64(self)
			st.count[s.Kind]++
			st.dur[s.Kind] = append(st.dur[s.Kind], s.End-s.Start)
			if s.Kind == kPhase && s.Tag < 2 {
				st.phaseNS[s.Tag] = append(st.phaseNS[s.Tag], s.End-s.Start)
			}
		}
		for _, ns := range r.epochNS {
			st.wallNS += float64(ns)
		}
	}
	for k := range st.dur {
		sort.Slice(st.dur[k], func(i, j int) bool { return st.dur[k][i] < st.dur[k][j] })
	}
	for t := range st.phaseNS {
		sort.Slice(st.phaseNS[t], func(i, j int) bool { return st.phaseNS[t][i] < st.phaseNS[t][j] })
	}
	return st
}

// tail is the duration at the highest percentile that has at least ten
// samples beyond it.
func tail(sorted []int64) float64 {
	p, _ := tailPercentile(len(sorted))
	return float64(percentile(sorted, p))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedMetrics derives the traced-pass per-layer metrics: counts from
// counter deltas, busy times from the runtime's phase totals, shares
// from span self times, and the predictions and reconciliation ratios
// from the isolated cells' unit costs times the traced counts. ref is
// the untraced window run just before, for the tracing overhead.
func tracedMetrics(wl *workload, sz sizes, w, ref *window, st *spanStats, c cells) map[string]float64 {
	t := w.total()
	e := float64(w.epochs)
	var phase [phases.NumKinds]float64
	for _, ns := range w.phaseNS {
		for k, v := range ns {
			phase[k] += float64(v)
		}
	}
	barrierNS := st.selfNS[kBarrier] + st.selfNS[kRunBarrier]
	barrierDur := append(append([]int64(nil), st.dur[kBarrier]...), st.dur[kRunBarrier]...)
	sort.Slice(barrierDur, func(i, j int) bool { return barrierDur[i] < barrierDur[j] })
	epochTime := func(x *window) float64 {
		return float64(percentile(x.merged(func(r *recorder) []int64 { return r.epochNS }), quiet))
	}
	covered := 0.0
	for k := kind(0); k < numKinds; k++ {
		if k != kPhase {
			covered += st.selfNS[k]
		}
	}
	viewNS := st.selfNS[kOpen] + st.selfNS[kRelease] + st.selfNS[kAccess]
	appNS := st.selfNS[kApp] + st.selfNS[kCopy]
	lockNS := st.selfNS[kAcquire] + st.selfNS[kUnlock]

	m := map[string]float64{
		// Taken from the untraced reference window, like the end-to-end
		// timings it was demoted from.
		"sync.call_us_p10": float64(percentile(ref.merged(func(r *recorder) []int64 { return r.syncNS }), quiet)) / 1e3,

		"app.compute_ms_per_epoch": appNS / float64(w.ranks) / e / 1e6,
		"view.open_ms_per_epoch":   viewNS / float64(w.ranks) / e / 1e6,
		"view.opens_per_epoch":     float64(t.Views) / e,
		"view.checks_per_epoch":    float64(t.AccessChecks) / e,

		"fetch.faults_per_epoch":   st.count[kFault] / e,
		"fetch.fault_us_p50":       float64(percentile(st.dur[kFault], 0.5)) / 1e3,
		"fetch.fault_us_tail":      tail(st.dur[kFault]) / 1e3,
		"fetch.serve_ms_per_epoch": phase[phases.FetchServe] / e / 1e6,

		"barrier.call_ms_p50":             float64(percentile(barrierDur, 0.5)) / 1e6,
		"barrier.call_ms_tail":            tail(barrierDur) / 1e6,
		"barrier.wait_share":              ratio(phase[phases.BarrierWait], barrierNS),
		"barrier.migrations_per_epoch":    float64(t.HomeMigrates) / e,
		"barrier.invalidations_per_epoch": float64(t.Invalidations) / e,

		"lock.acquire_us_tail": tail(st.dur[kAcquire]) / 1e3,
		"lock.release_us_p50":  float64(percentile(st.dur[kUnlock], 0.5)) / 1e3,
		"lock.cs_per_s":        st.count[kAcquire] / w.wall.Seconds(),
		"lock.msgs_per_cs":     ratio(float64(t.MsgsSent), st.count[kAcquire]),

		"diffing.diffs_per_epoch":    float64(t.DiffsMade) / e,
		"diffing.diff_KB_per_epoch":  float64(t.DiffBytes) / 1024 / e,
		"diffing.apply_ms_per_epoch": phase[phases.DiffApply] / e / 1e6,

		"dmm.mapins_per_epoch":   float64(t.MapIns) / e,
		"dmm.swapouts_per_epoch": float64(t.SwapOuts) / e,
		"dmm.pin_denials":        float64(t.PinDenls),
		"dmm.write_sweep_ms":     0,
		"dmm.read_sweep_ms":      0,

		"disk.read_KB_per_epoch":  float64(t.DiskReadBytes) / 1024 / e,
		"disk.write_KB_per_epoch": float64(t.DiskWriteBytes) / 1024 / e,
		"disk.write_amp":          0,
		"disk.read_amp":           0,

		"transport.frags_per_epoch": float64(t.FragsSent) / e,
		"transport.retrans_share":   ratio(float64(t.FragsRetrans), float64(t.FragsSent)),
		"go.gc_per_epoch":           float64(w.mem.NumGC) / e,

		"trace.overhead_share": epochTime(w)/epochTime(ref) - 1,
		"trace.coverage":       covered / st.wallNS,

		"share.app":          appNS / st.wallNS,
		"share.view_open":    viewNS / st.wallNS,
		"share.fault":        st.selfNS[kFault] / st.wallNS,
		"share.barrier_wait": min(phase[phases.BarrierWait], barrierNS) / st.wallNS,
		"share.barrier_work": max(barrierNS-phase[phases.BarrierWait], 0) / st.wallNS,
		"share.lock":         lockNS / st.wallNS,

		"recon.stencil_access":    0,
		"recon.multiwriter_fault": 0,
		"recon.lockstep_lock":     0,
		"recon.outofcore_mapin":   0,
	}

	// Predicted shares: a cell's unit cost times the traced count, over
	// the same denominator as the measured shares. wallNS covers
	// w.epochs epochs, so per-epoch costs are multiplied back by e.
	objBytes := float64(wl.objBytes(sz))
	diskNS := float64(t.DiskReadBytes)/(1<<20)/c["disk.file_read_MBps"]*1e9 +
		float64(t.DiskWriteBytes)/(1<<20)/c["disk.file_write_MBps"]*1e9
	dmmNS := float64(t.Views) * c["dmm.ensure_hit_ns"]
	if t.SwapOuts > 0 {
		dmmNS = float64(t.MapIns) * c["dmm.mapin_evicting_us"] * 1e3
	}
	m["share.twin_pred"] = wl.twinBytes(sz) * e / c["diffing.twin_GBps"] / st.wallNS
	m["share.diffing_pred"] = (float64(t.DiffsMade)*objBytes/c["diffing.stamped_compute_GBps"] +
		float64(t.DiffBytes)/c["diffing.stamped_apply_GBps"]) / st.wallNS
	m["share.wire_pred"] = (float64(t.MsgsSent)*c["wire.codec_256B_ns"] +
		float64(t.BytesSent)/c["wire.frag_reasm_256K_GBps"]) / st.wallNS
	m["share.dmm_pred"] = dmmNS / st.wallNS
	m["share.disk_pred"] = diskNS / st.wallNS

	// Reconciliation: predicted over measured self time, on the workload
	// each was written for.
	switch wl.name {
	case "stencil":
		opens := st.count[kOpen] + st.count[kFault]
		pred := opens*c["view.open_ns"] + wl.elemsPerEpoch(sz)*float64(w.ranks)*e*c["view.elem_ns"]
		m["recon.stencil_access"] = ratio(pred, st.selfNS[kApp]+viewNS)
	case "multiwriter":
		m["recon.multiwriter_fault"] = ratio(st.count[kFault]*c["fetch.fault_256K_udp_us"]*1e3, st.selfNS[kFault])
	case "lockstep":
		m["recon.lockstep_lock"] = ratio(st.count[kAcquire]*c["lock.handoff_us"]*1e3, lockNS)
	case "outofcore":
		m["recon.outofcore_mapin"] = ratio(dmmNS+diskNS, st.selfNS[kFault])
		m["dmm.write_sweep_ms"] = float64(percentile(st.phaseNS[0], 0.5)) / 1e6
		m["dmm.read_sweep_ms"] = float64(percentile(st.phaseNS[1], 0.5)) / 1e6
		user := float64(sz.OOCRows*sz.OOCWords*8) * e // bytes the application wrote, and read, per window
		m["disk.write_amp"] = float64(t.DiskWriteBytes) / user
		m["disk.read_amp"] = float64(t.DiskReadBytes) / user
	}
	return m
}
