// Package trace records causal, per-event protocol timelines.
//
// The counters of package stats say how often something happened and
// the phase ring of stats/phases says where an epoch's wall-clock time
// went; neither can answer "why was epoch 47 slow on rank 3" or "what
// was the fleet doing in the 200ms before rank 2 died". This package
// answers both with a bounded per-node ring of timestamped protocol
// events (barrier enter/exit, lock acquire/release, diff send/apply,
// fetch request/serve, checkpoint cut, transport retransmission),
// causally linked across ranks: a span that starts an RPC returns a
// compact wire.TraceCtx (rank, epoch, per-rank seq) the transport
// stamps onto the outgoing frame, and the serving rank links
// its own span back to it — so a fetch-serve span on the home connects
// to the fetch-request span on the cacher in the merged fleet view.
//
// The ring is opt-in (Config.Trace) and deliberately cheap: a fixed
// preallocated slot array guarded by a mutex, no allocation per event,
// and a nil *Ring is a valid no-op recorder so instrumentation sites
// never guard. Export writes Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing); DumpTail renders the last N events as
// text — the crash flight recorder cmd/lotsnode prints on failure.
//
// Timestamps are the machine's wall clock (UnixNano), never the
// deterministic simulated clock: recording an event must not perturb
// the simulated-time model, and internal/harness's
// TestTraceCostSelfAsserts asserts exactly that (identical simulated
// time and final bytes with tracing on or off).
package trace

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/wire"
)

// Kind identifies one traced protocol event.
type Kind uint8

// The traced events. Order is the export encoding order; append only.
const (
	// BarrierEnter spans a rank's Barrier/RunBarrier wait: Begin at
	// arrival (its ctx stamps TBarrierArrive), End when the exit reply
	// lands.
	BarrierEnter Kind = iota
	// BarrierExit marks the barrier-exit processing on a rank (instant).
	BarrierExit
	// LockAcquire spans Acquire: Begin before TLockReq (stamped), End
	// once the grant is applied.
	LockAcquire
	// LockRelease marks Release handing the lock back (instant).
	LockRelease
	// DiffSend marks one ordered barrier diff leaving the writer
	// (instant; its ctx stamps TBarrierDiff).
	DiffSend
	// DiffApply spans home-side application of one incoming diff,
	// linked to the writer's DiffSend.
	DiffApply
	// FetchReq spans a whole-object fetch round-trip on the faulting
	// rank: Begin before TObjFetchReq (stamped), End when the reply
	// lands.
	FetchReq
	// FetchServe spans home-side fetch service, linked to the
	// requester's FetchReq — the canonical cross-rank causal edge.
	FetchServe
	// CkptCut spans cutting (and buddy-replicating) the barrier-exit
	// checkpoint; its ctx stamps TCkptPut.
	CkptCut
	// Retransmit marks the UDP transport retransmitting fragments
	// (instant; Arg carries the fragment count).
	Retransmit

	// NumKinds is the number of event kinds; keep it last.
	NumKinds
)

// String returns the kind's snake_case name (the exported span name).
func (k Kind) String() string {
	switch k {
	case BarrierEnter:
		return "barrier_enter"
	case BarrierExit:
		return "barrier_exit"
	case LockAcquire:
		return "lock_acquire"
	case LockRelease:
		return "lock_release"
	case DiffSend:
		return "diff_send"
	case DiffApply:
		return "diff_apply"
	case FetchReq:
		return "fetch_req"
	case FetchServe:
		return "fetch_serve"
	case CkptCut:
		return "ckpt_cut"
	case Retransmit:
		return "retransmit"
	default:
		return "unknown"
	}
}

// stamped reports whether Begin/Instant events of this kind hand their
// ctx to the wire (and so should emit a flow-start in the export).
// Unstamped kinds would only add noise edges.
func (k Kind) stamped() bool {
	switch k {
	case BarrierEnter, LockAcquire, DiffSend, FetchReq, CkptCut:
		return true
	}
	return false
}

// Event is one recorded protocol event.
type Event struct {
	Kind  Kind
	Epoch uint32
	Seq   uint64 // this rank's trace sequence number (1-based)
	TS    int64  // wall clock, UnixNano
	Dur   int64  // span duration in ns; 0 = instant (or still open)
	Arg   uint64 // kind-specific detail (object/lock ID, frag count)
	Link  wire.TraceCtx
}

// DefaultWindow is the number of events a Ring retains. 4096 events at
// ~64 bytes each is a fixed ~256 KiB per rank — big enough to hold
// several epochs of protocol traffic, small enough to be always-on
// when tracing is enabled.
const DefaultWindow = 4096

// Ring is a bounded per-node event recorder. A nil *Ring is a valid
// no-op recorder (every method nil-checks), so the disabled path costs
// one predictable branch and zero allocations.
type Ring struct {
	rank uint16

	mu      sync.Mutex
	seq     uint64  // last assigned sequence number
	dropped uint64  // events overwritten by ring wraparound
	slots   []Event // fixed at construction; index (Seq-1) % len
}

// NewRing returns a ring for the given rank retaining the last window
// events (window <= 0 falls back to DefaultWindow).
func NewRing(rank int, window int) *Ring {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Ring{rank: uint16(rank), slots: make([]Event, window)}
}

// Begin records the start of a span and returns the context to stamp
// on the frame that carries the operation to another rank. End(ctx)
// closes the span. On a nil ring Begin returns the zero context, which
// costs zero wire bytes.
func (r *Ring) Begin(k Kind, epoch uint32, arg uint64, link wire.TraceCtx) wire.TraceCtx {
	if r == nil {
		return wire.TraceCtx{}
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	r.seq++
	seq := r.seq
	i := int((seq - 1) % uint64(len(r.slots)))
	if r.slots[i].Seq != 0 {
		r.dropped++
	}
	r.slots[i] = Event{Kind: k, Epoch: epoch, Seq: seq, TS: now, Arg: arg, Link: link}
	r.mu.Unlock()
	return wire.TraceCtx{Rank: r.rank, Epoch: epoch, Seq: seq}
}

// End closes the span Begin returned tc for, setting its duration. If
// the ring has since wrapped past the slot the End is dropped — the
// flight recorder favors recent events over complete ones.
func (r *Ring) End(tc wire.TraceCtx) {
	if r == nil || tc.Seq == 0 {
		return
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	i := int((tc.Seq - 1) % uint64(len(r.slots)))
	if r.slots[i].Seq == tc.Seq {
		if d := now - r.slots[i].TS; d > 0 {
			r.slots[i].Dur = d
		}
	}
	r.mu.Unlock()
}

// Instant records a point event (no duration) and returns its context
// for stamping, like Begin.
func (r *Ring) Instant(k Kind, epoch uint32, arg uint64, link wire.TraceCtx) wire.TraceCtx {
	return r.Begin(k, epoch, arg, link)
}

// Len reports how many events have been recorded (including any the
// ring has since overwritten).
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(r.seq)
}

// snapshot returns the retained events in sequence order. Caller does
// NOT hold r.mu.
func (r *Ring) snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.slots))
	if r.seq == 0 {
		return out
	}
	// Oldest retained seq first: the ring holds seqs (seq-window, seq].
	lo := uint64(1)
	if r.seq > uint64(len(r.slots)) {
		lo = r.seq - uint64(len(r.slots)) + 1
	}
	for s := lo; s <= r.seq; s++ {
		e := r.slots[int((s-1)%uint64(len(r.slots)))]
		if e.Seq == s {
			out = append(out, e)
		}
	}
	return out
}

// FlowID renders the globally unique flow identifier of a stamped
// context — shared by the launcher-side merge so flow start and finish
// events agree on the edge's name.
func FlowID(tc wire.TraceCtx) string {
	return fmt.Sprintf("r%ds%d", tc.Rank, tc.Seq)
}

// Export writes the ring's events as Chrome trace-event JSON — an
// object with a traceEvents array, loadable standalone in Perfetto and
// mergeable by the launcher. pid is the rank; tid is the event kind
// (concurrent serve handlers would otherwise produce illegally nested
// slices on one track). Spans are complete events ("X"), instants are
// "i", and causal edges are flow event pairs: a stamped span emits a
// flow start ("s") under FlowID(its ctx); an event with a non-zero
// Link emits a flow finish ("f") under FlowID(Link).
func (r *Ring) Export(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	events := r.snapshot()
	if _, err := io.WriteString(w, `{"traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(format string, args ...any) error {
		if !first {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		first = false
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	// Track-naming metadata: one process name per rank, one thread name
	// per kind that actually recorded events.
	if err := emit(`{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":"rank %d"}}`,
		r.rank, r.rank); err != nil {
		return err
	}
	var seen [NumKinds]bool
	for _, e := range events {
		if e.Kind < NumKinds {
			seen[e.Kind] = true
		}
	}
	for k := Kind(0); k < NumKinds; k++ {
		if !seen[k] {
			continue
		}
		if err := emit(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%q}}`,
			r.rank, k, k.String()); err != nil {
			return err
		}
	}
	for _, e := range events {
		ts := float64(e.TS) / 1e3 // Chrome trace timestamps are µs
		args := fmt.Sprintf(`{"epoch":%d,"arg":%d,"seq":%d}`, e.Epoch, e.Arg, e.Seq)
		if e.Dur > 0 {
			if err := emit(`{"ph":"X","pid":%d,"tid":%d,"name":%q,"cat":"proto","ts":%.3f,"dur":%.3f,"args":%s}`,
				r.rank, e.Kind, e.Kind.String(), ts, float64(e.Dur)/1e3, args); err != nil {
				return err
			}
		} else {
			if err := emit(`{"ph":"i","s":"t","pid":%d,"tid":%d,"name":%q,"cat":"proto","ts":%.3f,"args":%s}`,
				r.rank, e.Kind, e.Kind.String(), ts, args); err != nil {
				return err
			}
		}
		if e.Kind.stamped() {
			id := FlowID(wire.TraceCtx{Rank: r.rank, Epoch: e.Epoch, Seq: e.Seq})
			if err := emit(`{"ph":"s","pid":%d,"tid":%d,"name":"link","cat":"flow","id":%q,"ts":%.3f}`,
				r.rank, e.Kind, id, ts); err != nil {
				return err
			}
		}
		if !e.Link.Zero() {
			if err := emit(`{"ph":"f","bp":"e","pid":%d,"tid":%d,"name":"link","cat":"flow","id":%q,"ts":%.3f}`,
				r.rank, e.Kind, FlowID(e.Link), ts); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "]}")
	return err
}

// DumpTail writes the last n retained events as human-readable lines —
// the crash flight recorder. The block is delimited by FlightHeader
// and FlightFooter so a launcher can lift it out of a node log.
func (r *Ring) DumpTail(w io.Writer, n int) {
	if r == nil {
		return
	}
	events := r.snapshot()
	if len(events) == 0 {
		return
	}
	if n > 0 && len(events) > n {
		events = events[len(events)-n:]
	}
	r.mu.Lock()
	dropped := r.dropped
	r.mu.Unlock()
	fmt.Fprintf(w, "%s rank %d, last %d of %d events (%d overwritten)\n",
		FlightHeader, r.rank, len(events), r.Len(), dropped)
	last := events[len(events)-1].TS
	for _, e := range events {
		line := fmt.Sprintf("  T-%-12s %-13s epoch=%-4d seq=%-6d arg=%d",
			time.Duration(last-e.TS).Round(time.Microsecond), e.Kind, e.Epoch, e.Seq, e.Arg)
		if e.Dur > 0 {
			line += fmt.Sprintf(" dur=%v", time.Duration(e.Dur).Round(time.Microsecond))
		}
		if !e.Link.Zero() {
			line += fmt.Sprintf(" link=%s", FlowID(e.Link))
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintln(w, FlightFooter)
}

// FlightHeader and FlightFooter delimit a flight-recorder dump in a
// node's log so the launcher can surface it next to the casualty.
const (
	FlightHeader = "-- flight recorder --"
	FlightFooter = "-- end flight recorder --"
)
