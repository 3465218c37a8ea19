package stats

import (
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/stats/phases"
)

// TestWritePrometheusGolden pins the exact text encoding of a pinned
// snapshot + phase ring. The scrape surface is a wire format: tools
// parse it, so its bytes are part of the contract.
func TestWritePrometheusGolden(t *testing.T) {
	s := Snapshot{MsgsSent: 12, BytesSent: 4096, Barriers: 3, LeaseHits: 2}
	r := phases.NewRing(4)
	r.Observe(1, phases.BarrierWait, 1500*time.Nanosecond)
	r.Observe(1, phases.FetchServe, 250*time.Nanosecond)
	r.Observe(2, phases.BarrierWait, 500*time.Nanosecond)

	var b strings.Builder
	WritePrometheus(&b, 7, s, r)
	got := b.String()

	pinned := map[string]int64{"msgs_sent": 12, "bytes_sent": 4096, "barriers": 3, "lease_hits": 2}
	var w strings.Builder
	for _, name := range FieldNames() {
		w.WriteString("# TYPE lots_" + name + "_total counter\n")
		w.WriteString("lots_" + name + `_total{node="7"} `)
		w.WriteString(strconv.FormatInt(pinned[name], 10))
		w.WriteString("\n")
	}
	w.WriteString(`# TYPE lots_phase_ns_total counter
lots_phase_ns_total{node="7",phase="barrier_wait"} 2000
lots_phase_ns_total{node="7",phase="diff_apply"} 0
lots_phase_ns_total{node="7",phase="fetch_serve"} 250
lots_phase_ns_total{node="7",phase="lease_reval"} 0
lots_phase_ns_total{node="7",phase="ckpt_cut"} 0
# TYPE lots_phase_events_total counter
lots_phase_events_total{node="7",phase="barrier_wait"} 2
lots_phase_events_total{node="7",phase="diff_apply"} 0
lots_phase_events_total{node="7",phase="fetch_serve"} 1
lots_phase_events_total{node="7",phase="lease_reval"} 0
lots_phase_events_total{node="7",phase="ckpt_cut"} 0
# TYPE lots_phase_epoch_ns gauge
lots_phase_epoch_ns{node="7",phase="barrier_wait",epoch="1"} 1500
lots_phase_epoch_ns{node="7",phase="fetch_serve",epoch="1"} 250
lots_phase_epoch_ns{node="7",phase="barrier_wait",epoch="2"} 500
`)
	if got != w.String() {
		t.Errorf("Prometheus encoding drifted.\n--- got ---\n%s\n--- want ---\n%s", got, w.String())
	}
}

// TestWritePrometheusNilRing: the phase metric families must exist on
// a scrape even before any phase ran (nil or empty ring), so a
// verifier's gauge inventory is workload-independent.
func TestWritePrometheusNilRing(t *testing.T) {
	var b strings.Builder
	WritePrometheus(&b, 0, Snapshot{}, nil)
	for _, want := range []string{
		`lots_phase_ns_total{node="0",phase="barrier_wait"} 0`,
		`lots_phase_ns_total{node="0",phase="ckpt_cut"} 0`,
		`lots_phase_events_total{node="0",phase="lease_reval"} 0`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("nil-ring scrape missing %q", want)
		}
	}
	if strings.Contains(b.String(), "phase_epoch_ns{") {
		t.Errorf("nil-ring scrape emitted per-epoch samples")
	}
}

// TestMetricsHandlerConcurrentScrape races HTTP scrapes against
// counter and phase updates — the scrape-while-running guarantee,
// asserted by the -race build.
func TestMetricsHandlerConcurrentScrape(t *testing.T) {
	var c Counters
	r := phases.NewRing(8)
	h := MetricsHandler(3, c.Snap, r)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for e := uint32(0); ; e++ {
			select {
			case <-stop:
				return
			default:
				c.MsgsSent.Add(1)
				c.LeaseHits.Add(1)
				r.Observe(e, phases.BarrierWait, time.Nanosecond)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != 200 {
			t.Fatalf("scrape %d: HTTP %d", i, rec.Code)
		}
		body, _ := io.ReadAll(rec.Result().Body)
		if !strings.Contains(string(body), "lots_msgs_sent_total{node=\"3\"}") {
			t.Fatalf("scrape %d missing msgs_sent sample:\n%s", i, body)
		}
	}
	close(stop)
	wg.Wait()
}

// TestMetricsMuxScrape exercises the full per-rank observability mux
// (the one cmd/lotsnode serves): /metrics must carry the build-info
// gauge alongside the counter inventory, and the pprof surface must
// answer under /debug/pprof/.
func TestMetricsMuxScrape(t *testing.T) {
	var c Counters
	c.MsgsSent.Add(7)
	mux := NewMetricsMux(2, c.Snap, phases.NewRing(4))

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics: HTTP %d", rec.Code)
	}
	body, _ := io.ReadAll(rec.Result().Body)
	s := string(body)
	if !strings.Contains(s, `lots_build_info{node="2",version=`) ||
		!strings.Contains(s, "goversion=") {
		t.Fatalf("scrape missing build_info gauge:\n%s", s)
	}
	if !strings.Contains(s, "# TYPE lots_build_info gauge") {
		t.Fatalf("build_info missing TYPE line:\n%s", s)
	}
	if !strings.Contains(s, `lots_msgs_sent_total{node="2"} 7`) {
		t.Fatalf("scrape missing counter inventory:\n%s", s)
	}

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: HTTP %d", path, rec.Code)
		}
	}
	// The heap profile proves the full pprof index tree is mounted,
	// not just the literal paths registered on the mux.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/heap", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/pprof/heap: HTTP %d", rec.Code)
	}
}
