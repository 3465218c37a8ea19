package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/stats"
)

// kind names what a span timed. Spans are recorded by the benchmark's
// own SPMD bodies around each call into the runtime — nothing is added
// inside the runtime.
type kind uint8

const (
	kApp        kind = iota // application arithmetic: element loops, buffer fill, sum check
	kOpen                   // view open that found the object resident and valid
	kFault                  // view open that fetched from a peer or mapped in from disk
	kRelease                // View.Release
	kCopy                   // View.CopyFrom / CopyTo
	kAccess                 // Ptr.Get / Ptr.Set (a one-element view)
	kBarrier                // Node.Barrier
	kRunBarrier             // Node.RunBarrier
	kAcquire                // Node.Acquire
	kUnlock                 // Node.Release
	kPhase                  // container: one phase of an epoch (a sweep, a half-step)
	numKinds
)

var kindNames = [numKinds]string{"app", "view_open", "fault", "view_release", "copy",
	"access", "barrier", "run_barrier", "acquire", "release", "phase"}

func (k kind) String() string { return kindNames[k] }

// span is one timed interval on one rank. Start and End are nanoseconds
// since the recorder's origin; Parent indexes the enclosing span in the
// same rank's slice, or -1.
type span struct {
	Start, End int64
	Parent     int32
	Epoch      int32
	Kind       kind
	Tag        uint8 // body-defined label for kPhase spans
}

// spanChunk bounds one allocation of span storage; a recorder grows by
// whole chunks so a traced window never copies what it already holds.
const spanChunk = 1 << 16

// recorder is one rank's measurement state. Untraced, it keeps only
// the epoch and synchronisation-call durations; traced, it additionally records a span around every call the
// body makes into the runtime.
type recorder struct {
	rank   int
	traced bool
	origin time.Time
	ctr    *stats.Counters // this rank's counters: fault classification only

	epoch   int32
	epochNS []int64 // wall time of each epoch
	syncNS  []int64 // duration of each synchronisation call (untraced and traced)

	chunks [][]span
	count  int32
	top    int32 // innermost open span, -1 if none
	preIn  int64 // ObjFetches+MapIns when the innermost kOpen span began
}

func newRecorder(rank int, traced bool, ctr *stats.Counters) *recorder {
	return &recorder{rank: rank, traced: traced, ctr: ctr, top: -1,
		epochNS: make([]int64, 0, 1<<12), syncNS: make([]int64, 0, 1<<18)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

func (r *recorder) at(i int32) *span { return &r.chunks[i/spanChunk][i%spanChunk] }

// begin opens a span of kind k under the innermost open span.
func (r *recorder) begin(k kind) {
	if r.traced {
		r.push(k, 0)
	}
}

// beginPhase opens a container span labelled tag.
func (r *recorder) beginPhase(tag uint8) {
	if r.traced {
		r.push(kPhase, tag)
	}
}

func (r *recorder) push(k kind, tag uint8) {
	if int(r.count) == len(r.chunks)*spanChunk {
		r.chunks = append(r.chunks, make([]span, spanChunk))
	}
	if k == kOpen {
		r.preIn = r.ctr.ObjFetches.Load() + r.ctr.MapIns.Load()
	}
	i := r.count
	r.count++
	*r.at(i) = span{Start: r.now(), Parent: r.top, Epoch: r.epoch, Kind: k, Tag: tag}
	r.top = i
}

// end closes the innermost open span. A kOpen span during which this
// rank's fetch or map-in counter moved is reclassified as a fault: the
// classification is made from outside, from the public counters.
func (r *recorder) end() {
	if !r.traced {
		return
	}
	s := r.at(r.top)
	s.End = r.now()
	if s.Kind == kOpen && r.ctr.ObjFetches.Load()+r.ctr.MapIns.Load() != r.preIn {
		s.Kind = kFault
	}
	r.top = s.Parent
}

// syncBegin starts timing a synchronisation call. These are timed in
// untraced windows too: sync.call_us_p10 comes from one.
func (r *recorder) syncBegin(k kind) int64 {
	r.begin(k)
	return r.now()
}

func (r *recorder) syncEnd(t0 int64) {
	r.syncNS = append(r.syncNS, r.now()-t0)
	r.end()
}

// spans returns the rank's recorded spans as one slice (a copy).
func (r *recorder) spans() []span {
	out := make([]span, 0, r.count)
	for i, c := range r.chunks {
		n := min(int(r.count)-i*spanChunk, spanChunk)
		out = append(out, c[:n]...)
	}
	return out
}

// selfTimes returns each span's duration minus the part of it its
// direct children cover.
func selfTimes(sp []span) []int64 {
	self := make([]int64, len(sp))
	for i, s := range sp {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// percentile returns the p-quantile (0..1) of sorted, nearest-rank.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.999999) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// tailPercentile picks the highest of p99.9, p99, p90 that still has at
// least ten samples beyond it, so a reported tail is never a single
// outlier. With fewer than 100 samples there is no such percentile and
// it falls back to the median.
func tailPercentile(n int) (p float64, label string) {
	switch {
	case n/1000 >= 10:
		return 0.999, "p99.9"
	case n/100 >= 10:
		return 0.99, "p99"
	case n/10 >= 10:
		return 0.90, "p90"
	}
	return 0.5, "p50"
}

func sortedCopy(v []int64) []int64 {
	out := append([]int64(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// traceFileSpanCap bounds the span file: a traced stencil window
// records over a million spans, and the file is for reading, not for
// the metrics (those are computed from every span in memory).
const traceFileSpanCap = 100_000

// writeTrace writes the spans of every rank, oldest first and capped at
// traceFileSpanCap in total, as a JSON array of
// {name, rank, epoch, idx, start_ns, end_ns, parent} objects. idx numbers
// a rank's spans in the order they began; parent is the idx of the
// enclosing span of the same rank, or -1.
func writeTrace(path string, perRank [][]span, phaseNames []string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	budget := traceFileSpanCap / max(len(perRank), 1)
	first := true
	if _, err := w.WriteString("[\n"); err != nil {
		return err
	}
	for rank, sp := range perRank {
		for i, s := range sp[:min(len(sp), budget)] {
			name := s.Kind.String()
			if s.Kind == kPhase && int(s.Tag) < len(phaseNames) {
				name = phaseNames[s.Tag]
			}
			sep := ",\n"
			if first {
				sep, first = "", false
			}
			if _, err := fmt.Fprintf(w, `%s{"name":%q,"rank":%d,"epoch":%d,"idx":%d,"start_ns":%d,"end_ns":%d,"parent":%d}`,
				sep, name, rank, s.Epoch, i, s.Start, s.End, s.Parent); err != nil {
				return err
			}
		}
	}
	if _, err := w.WriteString("\n]\n"); err != nil {
		return err
	}
	return w.Flush()
}
