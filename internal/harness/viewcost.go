package harness

import (
	"fmt"
	"time"

	lots "repro"
	"repro/internal/platform"
)

// The viewcost experiment isolates what the zero-copy View API buys
// over element-wise Ptr access: the identical striped write/read
// workload runs twice on the mem transport, once with per-element
// Get/Set (one node-lock acquisition + one access check per element,
// the paper's C++ operator-overload model) and once with span views
// (one check and one pin per span). Protocol traffic is identical by
// construction, so the deltas in simulated time and check counts are
// the access-path cost alone.

// ViewCostCell is one side of the comparison.
type ViewCostCell struct {
	SimTime time.Duration
	Checks  int64 // access checks across the cluster
	Views   int64 // spans opened (one-element spans for the elem side)
	Msgs    int64
	Sum     int64 // checksum of the bytes actually read in the final round
}

// ViewCostResult is the elem-vs-view comparison on one workload.
type ViewCostResult struct {
	Procs, Words, Rounds, Passes int
	Elem, View                   ViewCostCell
}

// SimRatio returns elem simulated time over view simulated time.
func (r ViewCostResult) SimRatio() float64 {
	if r.View.SimTime <= 0 {
		return 0
	}
	return float64(r.Elem.SimTime) / float64(r.View.SimTime)
}

// CheckRatio returns elem access checks over view access checks.
func (r ViewCostResult) CheckRatio() float64 {
	if r.View.Checks <= 0 {
		return 0
	}
	return float64(r.Elem.Checks) / float64(r.View.Checks)
}

// ViewCost runs the comparison: procs nodes share one words-element
// array; each round every node bumps its stripe, a barrier reconciles,
// and every node then makes `passes` verification sweeps over the
// whole array (the amortization case the paper argues for: one
// coherence fetch, then a compute-bound inner loop over the resident
// object). Both sides verify every element against the closed form
// every sweep, and the function fails if the two sides' final states
// disagree. Protocol traffic — fetches, diffs, barriers — is identical
// by construction; only the access path differs.
func ViewCost(words, rounds, passes, procs int, prof platform.Profile) (ViewCostResult, error) {
	res := ViewCostResult{Procs: procs, Words: words, Rounds: rounds, Passes: passes}
	if words < procs || rounds < 1 || passes < 1 || procs < 2 {
		return res, fmt.Errorf("viewcost: need words >= procs >= 2, rounds >= 1, passes >= 1")
	}
	run := func(useViews bool) (ViewCostCell, error) {
		cfg := lots.DefaultConfig(procs)
		cfg.Platform = prof
		c, err := lots.NewCluster(cfg)
		if err != nil {
			return ViewCostCell{}, err
		}
		defer c.Close()
		// Per-node checksums of the bytes actually read in the final
		// round (distinct indices; no lock needed).
		finalSums := make([]int64, procs)
		err = c.Run(func(n *lots.Node) {
			arr := lots.Alloc[int32](n, words)
			n.Barrier()
			stripe := words / n.N()
			lo := n.ID() * stripe
			hi := lo + stripe
			if n.ID() == n.N()-1 {
				hi = words
			}
			for r := 0; r < rounds; r++ {
				// Write phase: read-modify-write over the owned stripe.
				if useViews {
					v := arr.ViewRW(lo, hi-lo)
					for i := 0; i < hi-lo; i++ {
						v.Set(i, v.At(i)+int32(n.ID()+r+1))
					}
					v.Release()
				} else {
					for i := lo; i < hi; i++ {
						arr.Set(i, arr.Get(i)+int32(n.ID()+r+1))
					}
				}
				n.Barrier()
				// Read phase: sweep the whole array `passes` times,
				// verifying every element against the closed form —
				// byte-level agreement with the element-wise reference.
				var sum int64
				check := func(i int, got int32) {
					if want := viewCostElem(i, r, words, procs); got != want {
						panic(fmt.Sprintf("viewcost: node %d round %d: arr[%d] = %d, want %d",
							n.ID(), r, i, got, want))
					}
					sum += int64(got)
				}
				if useViews {
					v := arr.View(0, words)
					for pass := 0; pass < passes; pass++ {
						for i := 0; i < words; i++ {
							check(i, v.At(i))
						}
					}
					v.Release()
				} else {
					for pass := 0; pass < passes; pass++ {
						for i := 0; i < words; i++ {
							check(i, arr.Get(i))
						}
					}
				}
				if r == rounds-1 {
					finalSums[n.ID()] = sum / int64(passes)
				}
				n.Barrier()
			}
		})
		if err != nil {
			return ViewCostCell{}, err
		}
		for q := 1; q < procs; q++ {
			if finalSums[q] != finalSums[0] {
				return ViewCostCell{}, fmt.Errorf("viewcost: node %d read checksum %d, node 0 read %d",
					q, finalSums[q], finalSums[0])
			}
		}
		t := c.Total()
		return ViewCostCell{
			SimTime: c.SimTime(),
			Checks:  t.AccessChecks,
			Views:   t.Views,
			Msgs:    t.MsgsSent,
			Sum:     finalSums[0],
		}, nil
	}
	var err error
	if res.Elem, err = run(false); err != nil {
		return res, fmt.Errorf("viewcost elem side: %w", err)
	}
	if res.View, err = run(true); err != nil {
		return res, fmt.Errorf("viewcost view side: %w", err)
	}
	if res.Elem.Sum != res.View.Sum {
		return res, fmt.Errorf("viewcost: final state diverged: elem sum %d, view sum %d",
			res.Elem.Sum, res.View.Sum)
	}
	return res, nil
}

// viewCostElem is the closed-form value of element i after round r:
// an element in node q's stripe holds sum_{t=0..r} (q+t+1).
func viewCostElem(i, r, words, procs int) int32 {
	stripe := words / procs
	q := i / stripe
	if q >= procs {
		q = procs - 1
	}
	return int32((r+1)*(q+1) + r*(r+1)/2)
}

// Assert enforces the redesign's acceptance bar: span views must beat
// element-wise access by at least minRatio in both simulated time and
// access-check count on the identical workload.
func (r ViewCostResult) Assert(minRatio float64) error {
	if sr := r.SimRatio(); sr < minRatio {
		return fmt.Errorf("viewcost: sim-time ratio %.2fx < %.1fx (elem %v, view %v) — view access path regressed",
			sr, minRatio, r.Elem.SimTime, r.View.SimTime)
	}
	if cr := r.CheckRatio(); cr < minRatio {
		return fmt.Errorf("viewcost: access-check ratio %.2fx < %.1fx (elem %d, view %d) — per-span checking regressed",
			cr, minRatio, r.Elem.Checks, r.View.Checks)
	}
	return nil
}
