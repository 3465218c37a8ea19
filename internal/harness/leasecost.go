package harness

import (
	"fmt"
	"time"

	lots "repro"
	"repro/internal/platform"
)

// The leasecost experiment isolates what lease-based revalidation buys
// on a read-mostly workload: a publisher re-publishes a table of rows
// every epoch (RX re-announcing its prefixes, SOR re-writing a
// converged boundary row), but only one row's bytes actually change
// per epoch. Under the paper's protocol every touched row invalidates
// every reader's copy, so each epoch costs readers one full fetch
// round-trip per row; with leases the unchanged rows revalidate with
// one batched version check per home and zero data transfer. The
// workload runs twice on the mem transport — leases off, leases on —
// and the two runs must end byte-identical.

// LeaseCostCell is one side of the comparison.
type LeaseCostCell struct {
	SimTime time.Duration
	Fetches int64 // whole-object fetch round-trips across the cluster
	Hits    int64 // leased copies kept across a barrier
	Demotes int64 // revalidations that fell back to a fetch
	Msgs    int64
	Digest  string // canonical digest of the final shared state
}

// LeaseCostResult is the invalidate-vs-revalidate comparison.
type LeaseCostResult struct {
	Procs, Rows, Words, Rounds int
	Base, Lease                LeaseCostCell
}

// FetchRatio returns baseline fetches over lease-run fetches.
func (r LeaseCostResult) FetchRatio() float64 {
	if r.Lease.Fetches <= 0 {
		return 0
	}
	return float64(r.Base.Fetches) / float64(r.Lease.Fetches)
}

// LeaseCost runs the comparison: procs nodes share `rows` row objects
// of `words` int32 words. Each round the publisher (node 0) rewrites
// every row — but only row (round % rows) with new values — then a
// barrier reconciles and every node sweeps all rows, verifying each
// element against the closed form. Both runs digest the final state
// through the same code path.
func LeaseCost(rows, words, rounds, procs int, prof platform.Profile) (LeaseCostResult, error) {
	res := LeaseCostResult{Procs: procs, Rows: rows, Words: words, Rounds: rounds}
	if rows < 2 || words < 1 || rounds < 2 || procs < 2 {
		return res, fmt.Errorf("leasecost: need rows >= 2, words >= 1, rounds >= 2, procs >= 2")
	}
	run := func(leases bool) (LeaseCostCell, error) {
		cfg := lots.DefaultConfig(procs)
		cfg.Platform = prof
		cfg.Leases = leases
		c, err := lots.NewCluster(cfg)
		if err != nil {
			return LeaseCostCell{}, err
		}
		defer c.Close()
		digests := make([]string, procs)
		err = c.Run(func(n *lots.Node) {
			m := lots.AllocMatrix[int32](n, rows, words)
			n.Barrier()
			for r := 0; r < rounds; r++ {
				if n.ID() == 0 {
					// Re-publish the whole table; only row r%rows gets
					// fresh bytes. The rewrite is a genuine RW span (write
					// check, twin, write notice) either way — exactly the
					// touched-but-unchanged pattern leases exist for.
					for row := 0; row < rows; row++ {
						v := m.RowViewRW(row)
						for i := 0; i < words; i++ {
							v.Set(i, leaseCostElem(row, i, leaseCostEpoch(row, r, rows)))
						}
						v.Release()
					}
				}
				n.Barrier()
				for row := 0; row < rows; row++ {
					v := m.RowView(row)
					for i := 0; i < words; i++ {
						want := leaseCostElem(row, i, leaseCostEpoch(row, r, rows))
						if got := v.At(i); got != want {
							panic(fmt.Sprintf("leasecost: node %d round %d: row %d[%d] = %d, want %d (stale copy?)",
								n.ID(), r, row, i, got, want))
						}
					}
					v.Release()
				}
				n.Barrier()
			}
			var b []byte
			for row := 0; row < rows; row++ {
				v := m.RowView(row)
				for i := 0; i < words; i++ {
					b = fmt.Appendf(b, "%d ", v.At(i))
				}
				v.Release()
			}
			digests[n.ID()] = string(b)
		})
		if err != nil {
			return LeaseCostCell{}, err
		}
		for q := 1; q < procs; q++ {
			if digests[q] != digests[0] {
				return LeaseCostCell{}, fmt.Errorf("leasecost: node %d final state differs from node 0", q)
			}
		}
		t := c.Total()
		return LeaseCostCell{
			SimTime: c.SimTime(),
			Fetches: t.ObjFetches,
			Hits:    t.LeaseHits,
			Demotes: t.LeaseDemotes,
			Msgs:    t.MsgsSent,
			Digest:  digests[0],
		}, nil
	}
	var err error
	if res.Base, err = run(false); err != nil {
		return res, fmt.Errorf("leasecost invalidate side: %w", err)
	}
	if res.Lease, err = run(true); err != nil {
		return res, fmt.Errorf("leasecost lease side: %w", err)
	}
	if res.Base.Digest != res.Lease.Digest {
		return res, fmt.Errorf("leasecost: final state diverged between lease-off and lease-on runs")
	}
	return res, nil
}

// leaseCostEpoch returns the last round at which row's bytes actually
// changed, as of round r: the publisher refreshes row `row` in rounds
// where r % rows == row (and every row in round 0).
func leaseCostEpoch(row, r, rows int) int {
	if r < row {
		return 0 // not refreshed yet this cycle; round-0 value stands
	}
	return r - (r-row)%rows
}

// leaseCostElem is the closed-form element value after row's last
// refresh at round `epoch`.
func leaseCostElem(row, i, epoch int) int32 {
	return int32(row*1_000_000 + epoch*1_000 + i)
}

// Assert enforces the subsystem's acceptance bar: the lease run must
// perform at least minRatio fewer fetch round-trips on the identical
// workload, actually exercise the lease machinery, and end in the same
// bytes.
func (r LeaseCostResult) Assert(minRatio float64) error {
	if r.Lease.Hits == 0 {
		return fmt.Errorf("leasecost: zero lease hits — revalidation never kept a copy")
	}
	if r.Lease.Demotes == 0 {
		return fmt.Errorf("leasecost: zero lease demotes — the changing row never exercised demotion")
	}
	if fr := r.FetchRatio(); fr < minRatio {
		return fmt.Errorf("leasecost: fetch ratio %.2fx < %.1fx (invalidate %d, lease %d) — revalidation regressed",
			fr, minRatio, r.Base.Fetches, r.Lease.Fetches)
	}
	return nil
}
