// Package phases records wall-clock protocol phase timings per epoch.
//
// The counters of package stats say how often a protocol event
// happened; they say nothing about where a rank's wall-clock time
// went. For an operator watching a fleet, the interesting question is
// exactly that: is rank 3 slow because it sits in the barrier waiting
// for a straggler, because it is grinding through reconciliation
// diffs, or because its peers hammer it with fetches? This package
// answers it with a small fixed-size ring of per-epoch phase timings
// plus cumulative per-phase totals, cheap enough to record on every
// protocol event and safe to snapshot from a concurrent scrape
// (the /metrics endpoint of cmd/lotsnode).
//
// Timings here are real wall-clock durations, deliberately distinct
// from the deterministic simulated clock (stats.SimClock) that the
// benchmark harness uses: observability wants the machine's truth,
// reproducible experiments want the model's. Recording one never
// perturbs the other.
package phases

import (
	"sort"
	"sync"
	"time"
)

// Kind identifies one protocol phase.
type Kind uint8

// The instrumented phases. Order is the wire/metrics encoding order;
// append only.
const (
	// BarrierWait is the time a rank spends inside Barrier/RunBarrier
	// waiting for the manager's exit reply — straggler time.
	BarrierWait Kind = iota
	// DiffApply is home-side time applying incoming barrier/lock-scope
	// diffs (serveBarrierDiff).
	DiffApply
	// FetchServe is home-side time serving whole-object fetches
	// (serveFetch), including reconciliation gating.
	FetchServe
	// CkptCut is the time cutting (and buddy-replicating) the
	// barrier-exit incremental checkpoint (checkpointAfterBarrier).
	CkptCut

	// NumKinds is the number of phases; keep it last.
	NumKinds
)

// String returns the phase's snake_case metric/label name.
func (k Kind) String() string {
	switch k {
	case BarrierWait:
		return "barrier_wait"
	case DiffApply:
		return "diff_apply"
	case FetchServe:
		return "fetch_serve"
	case CkptCut:
		return "ckpt_cut"
	default:
		return "unknown"
	}
}

// Kinds returns every phase in encoding order.
func Kinds() []Kind {
	return []Kind{BarrierWait, DiffApply, FetchServe, CkptCut}
}

// DefaultWindow is the number of recent epochs a Ring retains.
const DefaultWindow = 64

// Epoch is the recorded phase timings of one epoch.
type Epoch struct {
	Epoch uint32
	NS    [NumKinds]int64 // summed wall-clock nanoseconds per phase
}

// Ring accumulates phase durations: cumulative totals per phase for
// the life of the node, plus a ring of the most recent epochs. A nil
// *Ring is a valid no-op recorder, so instrumentation sites never
// need to guard.
type Ring struct {
	mu      sync.Mutex
	totalNS [NumKinds]int64
	events  [NumKinds]int64
	slots   []Epoch
	used    []bool
}

// NewRing returns a ring retaining the last window epochs (window <= 0
// falls back to DefaultWindow).
func NewRing(window int) *Ring {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Ring{slots: make([]Epoch, window), used: make([]bool, window)}
}

// Observe adds one phase duration to the given epoch's slot and to the
// cumulative totals. Durations <= 0 still count the event (phase ran,
// took under the clock's resolution).
func (r *Ring) Observe(epoch uint32, k Kind, d time.Duration) {
	if r == nil || k >= NumKinds {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	r.mu.Lock()
	r.totalNS[k] += ns
	r.events[k]++
	i := int(epoch) % len(r.slots)
	if !r.used[i] || r.slots[i].Epoch != epoch {
		r.slots[i] = Epoch{Epoch: epoch}
		r.used[i] = true
	}
	r.slots[i].NS[k] += ns
	r.mu.Unlock()
}

// Totals returns the cumulative per-phase nanoseconds and event counts.
func (r *Ring) Totals() (ns, events [NumKinds]int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	ns, events = r.totalNS, r.events
	r.mu.Unlock()
	return
}

// Epochs returns the retained epochs, oldest first.
func (r *Ring) Epochs() []Epoch {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Epoch, 0, len(r.slots))
	for i, u := range r.used {
		if u {
			out = append(out, r.slots[i])
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out
}
