package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	lots "repro"
	"repro/internal/platform"
)

// The tracecost experiment proves the causal tracing subsystem is an
// observer, not a participant: the same lock-round + barrier workload
// runs twice on the mem transport — Config.Trace off and on — and the
// two runs must end with byte-identical final state, identical
// simulated time (tracing records wall-clock timestamps and never
// touches the simulated clocks), and an identical message count (the
// trace context rides existing frames; it never adds one), with the
// traced run's wall-clock overhead bounded. (That the disabled path
// allocates nothing is internal/trace's TestDisabledPathZeroAlloc.)

// TraceCostCell is one side of the off/on comparison.
type TraceCostCell struct {
	SimTime time.Duration
	Msgs    int64
	Wall    time.Duration
	Digest  string
	Events  int // trace events recorded across the cluster
}

// TraceCostResult is the off/on comparison.
type TraceCostResult struct {
	Procs, Rounds, Words int
	Off, On              TraceCostCell
}

// Assert self-checks the experiment's claims; any violation is a
// regression in the tracing seam, not a tuning matter.
func (r TraceCostResult) Assert() error {
	if r.On.Digest != r.Off.Digest {
		return fmt.Errorf("tracecost: tracing changed the final state: %q vs %q", r.On.Digest, r.Off.Digest)
	}
	if r.On.SimTime != r.Off.SimTime {
		return fmt.Errorf("tracecost: tracing moved the simulated clock: %v vs %v", r.On.SimTime, r.Off.SimTime)
	}
	if r.On.Msgs != r.Off.Msgs {
		return fmt.Errorf("tracecost: tracing changed the message count: %d vs %d", r.On.Msgs, r.Off.Msgs)
	}
	if r.Off.Events != 0 {
		return fmt.Errorf("tracecost: untraced run recorded %d events", r.Off.Events)
	}
	if r.On.Events == 0 {
		return fmt.Errorf("tracecost: traced run recorded no events")
	}
	// Wall-clock bound, deliberately loose: the rings are mutex-guarded
	// preallocated slots, so anything past a generous multiple means a
	// hot-path regression (allocation per event, export on the hot
	// path), not scheduler noise.
	if limit := r.Off.Wall*5 + 100*time.Millisecond; r.On.Wall > limit {
		return fmt.Errorf("tracecost: traced run took %v, untraced %v (limit %v)", r.On.Wall, r.Off.Wall, limit)
	}
	return nil
}

// TraceCost runs the comparison: procs nodes increment a shared
// words-long array under one lock for rounds rounds, with barriers
// fencing the verification sweep — every protocol path the tracer
// instruments (locks, diffs, fetches, barriers) fires. Within a round
// the ranks take the lock one at a time in rank order, an event-only
// barrier between turns: left to contend, the grant order — and with
// it the simulated time and even the message count — would follow the
// goroutine schedule rather than the config.
func TraceCost(procs, rounds, words int, prof platform.Profile) (TraceCostResult, error) {
	res := TraceCostResult{Procs: procs, Rounds: rounds, Words: words}
	if procs < 2 || rounds < 1 || words < 1 {
		return res, fmt.Errorf("tracecost: need procs >= 2, rounds >= 1, words >= 1")
	}
	run := func(traced bool) (TraceCostCell, error) {
		var cell TraceCostCell
		cfg := lots.DefaultConfig(procs)
		cfg.Platform = prof
		cfg.Trace = traced
		c, err := lots.NewCluster(cfg)
		if err != nil {
			return cell, err
		}
		defer c.Close()
		digests := make([]string, procs)
		start := time.Now()
		err = c.Run(func(n *lots.Node) {
			arr := lots.Alloc[int32](n, words)
			n.Barrier()
			for r := 0; r < rounds; r++ {
				for turn := 0; turn < n.N(); turn++ {
					if n.ID() == turn {
						n.Acquire(3)
						for i := 0; i < words; i++ {
							arr.Set(i, arr.Get(i)+1)
						}
						n.Release(3)
					}
					n.RunBarrier()
				}
			}
			n.Barrier()
			want := int32(rounds * n.N())
			var b []byte
			for i := 0; i < words; i++ {
				got := arr.Get(i)
				if got != want {
					panic(fmt.Sprintf("tracecost: node %d: arr[%d] = %d, want %d", n.ID(), i, got, want))
				}
				b = fmt.Appendf(b, "%d ", got)
			}
			digests[n.ID()] = string(b)
			n.Barrier()
		})
		cell.Wall = time.Since(start)
		if err != nil {
			return cell, err
		}
		for q := 1; q < procs; q++ {
			if digests[q] != digests[0] {
				return cell, fmt.Errorf("tracecost: node %d final state differs from node 0", q)
			}
		}
		cell.Digest = digests[0]
		cell.SimTime = c.SimTime()
		cell.Msgs = c.Total().MsgsSent
		for i := 0; i < procs; i++ {
			ring := c.Node(i).Trace()
			cell.Events += ring.Len()
			if ring == nil {
				continue
			}
			// Each rank's export must be loadable JSON of the Chrome
			// trace-event shape — the same bytes a fleet merge consumes.
			var buf bytes.Buffer
			if err := ring.Export(&buf); err != nil {
				return cell, fmt.Errorf("tracecost: rank %d export: %w", i, err)
			}
			var f struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
				return cell, fmt.Errorf("tracecost: rank %d export is not valid trace JSON: %w", i, err)
			}
			if len(f.TraceEvents) == 0 {
				return cell, fmt.Errorf("tracecost: rank %d exported no events", i)
			}
		}
		return cell, nil
	}
	var err error
	if res.Off, err = run(false); err != nil {
		return res, err
	}
	if res.On, err = run(true); err != nil {
		return res, err
	}
	return res, res.Assert()
}
