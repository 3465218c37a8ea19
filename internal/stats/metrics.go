package stats

// Prometheus text exposition of a node's counters and protocol phase
// timings — the scrape surface behind cmd/lotsnode's -metrics flag.
// Stdlib only: the text format is a handful of lines per metric and
// needs no client library.
//
// Every Counters field is exported under the metric name its Snapshot
// field's struct tag carries (a counter without one stops the package
// from loading, and CI's fleet job fails a scrape missing any of
// FieldNames). Counter values are cumulative and monotonic, so
// everything renders as a Prometheus counter; the per-epoch phase ring
// renders as gauges keyed by an epoch label.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"

	"repro/internal/stats/phases"
)

// MetricPrefix namespaces every exposed metric.
const MetricPrefix = "lots_"

// WritePrometheus renders the snapshot and phase ring in Prometheus
// text exposition format, labeled with the node's rank. ph may be nil
// (phase families are emitted with zero totals so a scrape's gauge
// inventory is independent of workload).
func WritePrometheus(w io.Writer, node int, s Snapshot, ph *phases.Ring) {
	for _, f := range s.Fields() {
		fmt.Fprintf(w, "# TYPE %s%s_total counter\n", MetricPrefix, f.Name)
		fmt.Fprintf(w, "%s%s_total{node=\"%d\"} %d\n", MetricPrefix, f.Name, node, f.Value)
	}
	ns, events := ph.Totals()
	fmt.Fprintf(w, "# TYPE %sphase_ns_total counter\n", MetricPrefix)
	for _, k := range phases.Kinds() {
		fmt.Fprintf(w, "%sphase_ns_total{node=\"%d\",phase=%q} %d\n", MetricPrefix, node, k.String(), ns[k])
	}
	fmt.Fprintf(w, "# TYPE %sphase_events_total counter\n", MetricPrefix)
	for _, k := range phases.Kinds() {
		fmt.Fprintf(w, "%sphase_events_total{node=\"%d\",phase=%q} %d\n", MetricPrefix, node, k.String(), events[k])
	}
	if eps := ph.Epochs(); len(eps) > 0 {
		fmt.Fprintf(w, "# TYPE %sphase_epoch_ns gauge\n", MetricPrefix)
		for _, ep := range eps {
			for _, k := range phases.Kinds() {
				if ep.NS[k] == 0 {
					continue
				}
				fmt.Fprintf(w, "%sphase_epoch_ns{node=\"%d\",phase=%q,epoch=\"%d\"} %d\n",
					MetricPrefix, node, k.String(), ep.Epoch, ep.NS[k])
			}
		}
	}
}

// WriteBuildInfo emits the lots_build_info gauge: the conventional
// constant-1 info metric whose labels identify what binary this rank
// is running — module version (vcs stamp or "(devel)"), Go toolchain,
// and rank. A fleet dashboard joins on it to catch version skew.
func WriteBuildInfo(w io.Writer, node int) {
	version := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	fmt.Fprintf(w, "# TYPE %sbuild_info gauge\n", MetricPrefix)
	fmt.Fprintf(w, "%sbuild_info{node=\"%d\",version=%q,goversion=%q} 1\n",
		MetricPrefix, node, version, runtime.Version())
}

// MetricsHandler serves WritePrometheus (plus the build-info gauge)
// over HTTP — mount it at /metrics. snap is called per scrape (a
// Snapshot is a race-free value copy), so scraping a running node is
// always safe.
func MetricsHandler(node int, snap func() Snapshot, ph *phases.Ring) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteBuildInfo(w, node)
		WritePrometheus(w, node, snap(), ph)
	})
}

// NewMetricsMux builds the full per-rank observability mux cmd/lotsnode
// serves: /metrics (counters, phases, build info) plus the standard
// net/http/pprof surface under /debug/pprof/ — profiling a live rank
// needs no extra flag or port. Registration is explicit (not the
// pprof package's DefaultServeMux side effect) so the surface is
// testable and nothing else leaks onto the node's listener.
func NewMetricsMux(node int, snap func() Snapshot, ph *phases.Ring) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(node, snap, ph))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
