// Package stats provides per-node event counters and the simulated-time
// clocks used by the reproduction's benchmark harness.
//
// The original LOTS evaluation measured wall-clock execution time on a
// 16-node cluster. This reproduction runs all nodes inside one process,
// so wall-clock time no longer reflects cluster behaviour. Instead, every
// protocol-relevant event (message, byte, disk transfer, access check,
// swap, diff) is counted per node, and a deterministic simulated clock is
// advanced using a platform cost profile. Simulated clocks merge at every
// message receipt and synchronization point, so causality matches the
// real system's critical path.
package stats

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counters aggregates protocol events for one node. All fields are
// manipulated atomically so that the node's application goroutine and its
// message-service goroutine can update them concurrently.
//
// The counter list is written twice — here, and in Snapshot with the
// same names in the same order (checked when the package loads). Snap,
// Sub, Add, String, Fields, FieldNames and Table iterate it.
type Counters struct {
	MsgsSent       atomic.Int64 // logical protocol messages sent
	MsgsRecv       atomic.Int64
	BatchesSent    atomic.Int64 // coalesced TBatch envelopes flushed
	BatchedMsgs    atomic.Int64 // protocol messages carried inside batches
	FragsSent      atomic.Int64 // wire fragments after 64 KB splitting
	FragsRetrans   atomic.Int64 // fragments retransmitted (timeout + fast)
	FastRetrans    atomic.Int64 // dup-ack fast retransmissions (subset of FragsRetrans)
	RTTSamples     atomic.Int64 // RTT measurements fed to the adaptive RTO
	BytesSent      atomic.Int64
	BytesRecv      atomic.Int64
	AccessChecks   atomic.Int64 // Ptr access-check invocations (§4.2)
	Views          atomic.Int64 // pinned spans opened (View API + legacy span accessors)
	MapIns         atomic.Int64 // objects mapped into the DMM area
	SwapOuts       atomic.Int64 // objects evicted from the DMM area
	DiskReads      atomic.Int64 // backing-store read operations
	DiskWrites     atomic.Int64
	DiskReadBytes  atomic.Int64
	DiskWriteBytes atomic.Int64
	DiffsMade      atomic.Int64
	DiffBytes      atomic.Int64
	ObjFetches     atomic.Int64 // whole-object (or page) fetches
	LockAcquires   atomic.Int64
	Barriers       atomic.Int64
	HomeMigrates   atomic.Int64
	Invalidations  atomic.Int64
	LeasesGranted  atomic.Int64 // read leases handed out with fetch replies (home side)
	LeaseHits      atomic.Int64 // leased copies kept valid across a barrier (zero data transfer)
	LeaseDemotes   atomic.Int64 // revalidations that fell back to invalidate-and-fetch
	Ckpts          atomic.Int64 // barrier-time checkpoints written
	CkptBytes      atomic.Int64 // object bytes serialized into checkpoints
	CkptSkipped    atomic.Int64 // checkpoint segments skipped as unchanged (zero bytes)
	Rehomes        atomic.Int64 // owners restored from a peer's checkpoint store
	PageFaults     atomic.Int64 // JIAJIA baseline: simulated SIGSEGV faults
	FalseShares    atomic.Int64 // JIAJIA baseline: write faults on pages holding >1 object
	PinDenls       atomic.Int64 // evictions skipped because the victim was pinned
}

// Snapshot is a plain-value copy of Counters, safe to compare and print.
// A field's metric tag is its name in String, Fields, the LCTL stat
// frame and the Prometheus exposition; a col tag gives it a column in
// Table.
type Snapshot struct {
	MsgsSent       int64 `metric:"msgs_sent" col:"msgs"`
	MsgsRecv       int64 `metric:"msgs_recv"`
	BatchesSent    int64 `metric:"batches_sent"`
	BatchedMsgs    int64 `metric:"batched_msgs"`
	FragsSent      int64 `metric:"frags_sent"`
	FragsRetrans   int64 `metric:"frags_retrans"`
	FastRetrans    int64 `metric:"fast_retrans"`
	RTTSamples     int64 `metric:"rtt_samples"`
	BytesSent      int64 `metric:"bytes_sent" col:"bytes"`
	BytesRecv      int64 `metric:"bytes_recv"`
	AccessChecks   int64 `metric:"access_checks" col:"checks"`
	Views          int64 `metric:"views"`
	MapIns         int64 `metric:"map_ins" col:"mapins"`
	SwapOuts       int64 `metric:"swap_outs" col:"swaps"`
	DiskReads      int64 `metric:"disk_reads" col:"dskRd"`
	DiskWrites     int64 `metric:"disk_writes" col:"dskWr"`
	DiskReadBytes  int64 `metric:"disk_read_bytes"`
	DiskWriteBytes int64 `metric:"disk_write_bytes"`
	DiffsMade      int64 `metric:"diffs_made" col:"diffs"`
	DiffBytes      int64 `metric:"diff_bytes"`
	ObjFetches     int64 `metric:"obj_fetches" col:"fetch"`
	LockAcquires   int64 `metric:"lock_acquires" col:"locks"`
	Barriers       int64 `metric:"barriers" col:"barr"`
	HomeMigrates   int64 `metric:"home_migrations" col:"migr"`
	Invalidations  int64 `metric:"invalidations" col:"inval"`
	LeasesGranted  int64 `metric:"leases_granted"`
	LeaseHits      int64 `metric:"lease_hits" col:"lhit"`
	LeaseDemotes   int64 `metric:"lease_demotes" col:"ldem"`
	Ckpts          int64 `metric:"ckpts" col:"ckpt"`
	CkptBytes      int64 `metric:"ckpt_bytes"`
	CkptSkipped    int64 `metric:"ckpt_skipped"`
	Rehomes        int64 `metric:"rehomes" col:"rehom"`
	PageFaults     int64 `metric:"page_faults" col:"fault"`
	FalseShares    int64 `metric:"false_sharing_faults"`
	PinDenls       int64 `metric:"pin_denials"`
}

// fields is the counter list, in declaration order: index i is field i
// of both Counters and Snapshot. Building it is the drift check — a
// counter missing from one struct, out of order, or without a metric
// name of its own stops every binary and test at start-up.
var fields = func() []struct{ metric, col string } {
	ct, st := reflect.TypeOf((*Counters)(nil)).Elem(), reflect.TypeOf(Snapshot{})
	if ct.NumField() != st.NumField() {
		panic("stats: Counters and Snapshot list different counters")
	}
	out := make([]struct{ metric, col string }, st.NumField())
	seen := make(map[string]bool)
	for i := range out {
		f := st.Field(i)
		out[i].metric, out[i].col = f.Tag.Get("metric"), f.Tag.Get("col")
		if f.Name != ct.Field(i).Name || out[i].metric == "" || seen[out[i].metric] {
			panic("stats: Snapshot." + f.Name + " is not Counters' field " + fmt.Sprint(i) + " or has no metric name of its own")
		}
		seen[out[i].metric] = true
	}
	return out
}()

// Snap returns a point-in-time copy of the counters.
func (c *Counters) Snap() Snapshot {
	var s Snapshot
	cv, sv := reflect.ValueOf(c).Elem(), reflect.ValueOf(&s).Elem()
	for i := range fields {
		sv.Field(i).SetInt(cv.Field(i).Addr().Interface().(*atomic.Int64).Load())
	}
	return s
}

// Sub returns s - o field-wise, for measuring a region of execution.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	sv, ov := reflect.ValueOf(&s).Elem(), reflect.ValueOf(&o).Elem()
	for i := range fields {
		sv.Field(i).SetInt(sv.Field(i).Int() - ov.Field(i).Int())
	}
	return s
}

// Add returns s + o field-wise, for aggregating across nodes.
func (s Snapshot) Add(o Snapshot) Snapshot {
	return s.Sub(Snapshot{}.Sub(o))
}

// Field is one named counter value of a Snapshot, in canonical order.
type Field struct {
	Name  string
	Value int64
}

// Fields returns every counter of the snapshot as (name, value) pairs
// in canonical order — the encoding the LCTL stat frame streams and
// the metric names the Prometheus surface exposes.
func (s Snapshot) Fields() []Field {
	sv := reflect.ValueOf(&s).Elem()
	out := make([]Field, len(fields))
	for i, f := range fields {
		out[i] = Field{Name: f.metric, Value: sv.Field(i).Int()}
	}
	return out
}

// FieldNames returns the canonical counter metric names (without the
// lots_ prefix or _total suffix) — what a scrape verifier must find.
func FieldNames() []string {
	out := make([]string, len(fields))
	for i, f := range fields {
		out[i] = f.metric
	}
	return out
}

// String renders the non-zero counters compactly.
func (s Snapshot) String() string {
	var b strings.Builder
	for _, f := range s.Fields() {
		if f.Value != 0 {
			fmt.Fprintf(&b, "%s=%d ", f.Name, f.Value)
		}
	}
	return strings.TrimSpace(b.String())
}

// SimClock is a node's deterministic simulated clock. Time is held in
// nanoseconds. Clocks advance when the owning node performs simulated
// work and merge forward when a message with a later causal timestamp is
// received, exactly like a Lamport clock over durations.
type SimClock struct {
	mu sync.Mutex
	ns int64
}

// Now returns the current simulated time.
func (c *SimClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.ns)
}

// Advance moves the clock forward by d (negative d is ignored).
func (c *SimClock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.ns += int64(d)
	c.mu.Unlock()
}

// MergeTo sets the clock to max(current, t). It returns the resulting
// time, which callers use as the causal receive timestamp.
func (c *SimClock) MergeTo(t time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if int64(t) > c.ns {
		c.ns = int64(t)
	}
	return time.Duration(c.ns)
}

// Reset sets the clock back to zero (used between harness runs).
func (c *SimClock) Reset() {
	c.mu.Lock()
	c.ns = 0
	c.mu.Unlock()
}

// MaxOf returns the maximum of the given simulated times; it is the
// cluster-level "execution time" of an SPMD phase (the slowest node).
func MaxOf(ts ...time.Duration) time.Duration {
	var m time.Duration
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}

// Table formats a slice of per-node snapshots as an aligned text table.
// Only columns with at least one non-zero value are included.
func Table(snaps []Snapshot) string {
	rows := make([][]Field, len(snaps))
	for i, s := range snaps {
		rows[i] = s.Fields()
	}
	var live []int // indices into fields
	for i, f := range fields {
		if f.col == "" {
			continue
		}
		for _, r := range rows {
			if r[i].Value != 0 {
				live = append(live, i)
				break
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s", "node")
	for _, i := range live {
		fmt.Fprintf(&b, " %10s", fields[i].col)
	}
	b.WriteByte('\n')
	for n, r := range rows {
		fmt.Fprintf(&b, "%-5d", n)
		for _, i := range live {
			fmt.Fprintf(&b, " %10d", r[i].Value)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Percentiles returns the p-quantiles (0..1) of the given durations.
func Percentiles(ds []time.Duration, ps ...float64) []time.Duration {
	if len(ds) == 0 {
		return make([]time.Duration, len(ps))
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make([]time.Duration, len(ps))
	for i, p := range ps {
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		idx := int(p * float64(len(sorted)-1))
		out[i] = sorted[idx]
	}
	return out
}
