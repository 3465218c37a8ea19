package main

import "fmt"

// metric is one named measurement. BENCHMARK.json at the repository
// root lists the same names, units, directions and bounds; a test keeps
// the two in step.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the baseline's median it may worsen by
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the DSM sees, measured with tracing off.
// Every one is reported on every workload.
//
// The timings are first deciles, not medians: on this shared host the
// epoch time of one unchanged process flips between a fast and a slow
// mode 1.7x apart for seconds at a time, so the median of a window
// lands in whichever mode held longer (run-to-run spread 14-15%) while
// the first decile stays in the fast mode (spread 2-3%). See README.md.
var endToEnd = []metric{
	{"setup_s", "s", lower, 0.25},
	{"epochs_per_s", "1/s", higher, 0.25},
	{"epoch_ms_p10", "ms", lower, 0.25},
	{"cpu_ms_per_epoch_p10", "ms", lower, 0.25},
	{"allocs_per_epoch", "count", lower, 0.02},
	{"alloc_KB_per_epoch", "KiB", lower, 0.02},
	{"wire_KB_per_epoch", "KiB", lower, 0.02},
	{"msgs_per_epoch", "count", lower, 0.02},
	{"peak_rss_MB", "MiB", lower, 0.15},
}

// perLayer is what a -trace 1 run reports: the isolated cells followed
// by the traced pass.
var perLayer = append(append([]metric(nil), cellDefs...), tracedDefs...)

// cellDefs are the isolated cells: they time a layer through its public
// functions and do not depend on the workload.
var cellDefs = []metric{
	{Name: "view.get_ns", Unit: "ns", Better: lower},
	{Name: "view.set_ns", Unit: "ns", Better: lower},
	{Name: "view.open_ns", Unit: "ns", Better: lower},
	{Name: "view.openrw_first_ns", Unit: "ns", Better: lower},
	{Name: "view.elem_ns", Unit: "ns", Better: lower},
	{Name: "view.copy_GBps", Unit: "GB/s", Better: higher},
	{Name: "fetch.fault_8K_mem_us", Unit: "us", Better: lower},
	{Name: "fetch.fault_256K_udp_us", Unit: "us", Better: lower},
	{Name: "barrier.empty_us", Unit: "us", Better: lower},
	{Name: "barrier.empty_8k_objs_us", Unit: "us", Better: lower},
	{Name: "barrier.run_us", Unit: "us", Better: lower},
	{Name: "lock.remote_uncontended_us", Unit: "us", Better: lower},
	{Name: "lock.handoff_us", Unit: "us", Better: lower},
	{Name: "object.lookup_ns", Unit: "ns", Better: lower},
	{Name: "object.foreach_ns_per_obj", Unit: "ns", Better: lower},
	{Name: "dmm.new_mapper_ms", Unit: "ms", Better: lower},
	{Name: "dmm.alloc_free_ns", Unit: "ns", Better: lower},
	{Name: "dmm.ensure_hit_ns", Unit: "ns", Better: lower},
	{Name: "dmm.mapin_us", Unit: "us", Better: lower},
	{Name: "dmm.evict_us", Unit: "us", Better: lower},
	{Name: "dmm.mapin_evicting_us", Unit: "us", Better: lower},
	{Name: "disk.file_write_MBps", Unit: "MB/s", Better: higher},
	{Name: "disk.file_read_MBps", Unit: "MB/s", Better: higher},
	{Name: "disk.sim_write_MBps", Unit: "MB/s", Better: higher},
	{Name: "disk.sim_read_MBps", Unit: "MB/s", Better: higher},
	{Name: "diffing.twin_GBps", Unit: "GB/s", Better: higher},
	{Name: "diffing.compute_clean_GBps", Unit: "GB/s", Better: higher},
	{Name: "diffing.compute_sparse_GBps", Unit: "GB/s", Better: higher},
	{Name: "diffing.compute_stripe_GBps", Unit: "GB/s", Better: higher},
	{Name: "diffing.compute_dense_GBps", Unit: "GB/s", Better: higher},
	{Name: "diffing.compute_allocs_per_op", Unit: "count", Better: lower},
	{Name: "diffing.apply_GBps", Unit: "GB/s", Better: higher},
	{Name: "diffing.stamped_compute_GBps", Unit: "GB/s", Better: higher},
	{Name: "diffing.stamped_apply_GBps", Unit: "GB/s", Better: higher},
	{Name: "diffing.filter_by_stamp_GBps", Unit: "GB/s", Better: higher},
	{Name: "diffing.encode_decode_GBps", Unit: "GB/s", Better: higher},
	{Name: "wire.codec_256B_ns", Unit: "ns", Better: lower},
	{Name: "wire.codec_256K_us", Unit: "us", Better: lower},
	{Name: "wire.codec_allocs_per_op", Unit: "count", Better: lower},
	{Name: "wire.frag_reasm_256K_GBps", Unit: "GB/s", Better: higher},
	{Name: "wire.frag_reasm_allocs_per_op", Unit: "count", Better: lower},
	{Name: "wire.batch_ns_per_msg", Unit: "ns", Better: lower},
	{Name: "wire.slab_getput_ns", Unit: "ns", Better: lower},
	{Name: "transport.mem.rtt_us_p50", Unit: "us", Better: lower},
	{Name: "transport.mem.msgs_per_s", Unit: "1/s", Better: higher},
	{Name: "transport.mem.stream_MBps", Unit: "MB/s", Better: higher},
	{Name: "transport.udp.rtt_us_p50", Unit: "us", Better: lower},
	{Name: "transport.udp.msgs_per_s", Unit: "1/s", Better: higher},
	{Name: "transport.udp.stream_MBps", Unit: "MB/s", Better: higher},
	{Name: "transport.udp.stream_retrans_share", Unit: "ratio", Better: lower},
	{Name: "transport.tcp.rtt_us_p50", Unit: "us", Better: lower},
	{Name: "transport.tcp.msgs_per_s", Unit: "1/s", Better: higher},
	{Name: "transport.tcp.stream_MBps", Unit: "MB/s", Better: higher},
	{Name: "transport.coalesce_ns_per_msg", Unit: "ns", Better: lower},
	{Name: "recovery.put_MBps", Unit: "MB/s", Better: higher},
	{Name: "recovery.materialize_ms", Unit: "ms", Better: lower},
	{Name: "trace.disabled_ns", Unit: "ns", Better: lower},
	{Name: "trace.enabled_ns", Unit: "ns", Better: lower},
	{Name: "stats.counter_add_ns", Unit: "ns", Better: lower},
}

// tracedDefs are the traced pass of one workload: spans recorded by the
// benchmark around each call into the runtime, counter deltas, and the
// runtime's phase totals. A metric that does not apply to a workload
// (lock.* on stencil, recon.* of another workload) is reported as 0
// there.
var tracedDefs = []metric{
	{Name: "host.calib_ms", Unit: "ms", Better: lower},
	{Name: "sync.call_us_p10", Unit: "us", Better: lower},
	{Name: "app.compute_ms_per_epoch", Unit: "ms", Better: lower},
	{Name: "view.open_ms_per_epoch", Unit: "ms", Better: lower},
	{Name: "view.opens_per_epoch", Unit: "count", Better: lower},
	{Name: "view.checks_per_epoch", Unit: "count", Better: lower},
	{Name: "fetch.faults_per_epoch", Unit: "count", Better: lower},
	{Name: "fetch.fault_us_p50", Unit: "us", Better: lower},
	{Name: "fetch.fault_us_tail", Unit: "us", Better: lower},
	{Name: "fetch.serve_ms_per_epoch", Unit: "ms", Better: lower},
	{Name: "barrier.call_ms_p50", Unit: "ms", Better: lower},
	{Name: "barrier.call_ms_tail", Unit: "ms", Better: lower},
	{Name: "barrier.wait_share", Unit: "ratio", Better: lower},
	{Name: "barrier.migrations_per_epoch", Unit: "count", Better: lower},
	{Name: "barrier.invalidations_per_epoch", Unit: "count", Better: lower},
	{Name: "lock.acquire_us_tail", Unit: "us", Better: lower},
	{Name: "lock.release_us_p50", Unit: "us", Better: lower},
	{Name: "lock.cs_per_s", Unit: "1/s", Better: higher},
	{Name: "lock.msgs_per_cs", Unit: "count", Better: lower},
	{Name: "diffing.diffs_per_epoch", Unit: "count", Better: lower},
	{Name: "diffing.diff_KB_per_epoch", Unit: "KiB", Better: lower},
	{Name: "diffing.apply_ms_per_epoch", Unit: "ms", Better: lower},
	{Name: "dmm.mapins_per_epoch", Unit: "count", Better: lower},
	{Name: "dmm.swapouts_per_epoch", Unit: "count", Better: lower},
	{Name: "dmm.pin_denials", Unit: "count", Better: lower},
	{Name: "dmm.write_sweep_ms", Unit: "ms", Better: lower},
	{Name: "dmm.read_sweep_ms", Unit: "ms", Better: lower},
	{Name: "disk.read_KB_per_epoch", Unit: "KiB", Better: lower},
	{Name: "disk.write_KB_per_epoch", Unit: "KiB", Better: lower},
	{Name: "disk.write_amp", Unit: "ratio", Better: lower},
	{Name: "disk.read_amp", Unit: "ratio", Better: lower},
	{Name: "transport.frags_per_epoch", Unit: "count", Better: lower},
	{Name: "transport.retrans_share", Unit: "ratio", Better: lower},
	{Name: "go.gc_per_epoch", Unit: "count", Better: lower},
	{Name: "trace.overhead_share", Unit: "ratio", Better: lower},
	{Name: "trace.coverage", Unit: "ratio", Better: higher},
	{Name: "share.app", Unit: "ratio", Better: lower},
	{Name: "share.view_open", Unit: "ratio", Better: lower},
	{Name: "share.fault", Unit: "ratio", Better: lower},
	{Name: "share.barrier_wait", Unit: "ratio", Better: lower},
	{Name: "share.barrier_work", Unit: "ratio", Better: lower},
	{Name: "share.lock", Unit: "ratio", Better: lower},
	{Name: "share.twin_pred", Unit: "ratio", Better: lower},
	{Name: "share.diffing_pred", Unit: "ratio", Better: lower},
	{Name: "share.wire_pred", Unit: "ratio", Better: lower},
	{Name: "share.dmm_pred", Unit: "ratio", Better: lower},
	{Name: "share.disk_pred", Unit: "ratio", Better: lower},
	{Name: "recon.stencil_access", Unit: "ratio", Better: lower},
	{Name: "recon.multiwriter_fault", Unit: "ratio", Better: lower},
	{Name: "recon.lockstep_lock", Unit: "ratio", Better: lower},
	{Name: "recon.outofcore_mapin", Unit: "ratio", Better: lower},
}

// value is one reported measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report turns measured values into the named, unit-carrying form the
// result line uses. Every metric of defs must have been measured and
// nothing else may have been: a name the registry does not know, or one
// it knows and the run did not produce, is a bug in the benchmark.
func report(defs []metric, measured map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := measured[d.Name]
		if !ok {
			return nil, fmt.Errorf("benchmark: metric %s not measured", d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	for name := range measured {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("benchmark: metric %s measured but not in the registry", name)
		}
	}
	return out, nil
}
