package harness

import (
	"testing"
	"time"

	"repro/internal/platform"
)

// TestLeaseCostSelfAsserts runs the leasecost experiment at test scale
// and enforces the subsystem's acceptance bar: >= 3x fewer fetch
// round-trips with live hits and demotes and byte-identical state.
func TestLeaseCostSelfAsserts(t *testing.T) {
	res, err := LeaseCost(8, 64, 8, 3, platform.Test())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assert(3.0); err != nil {
		t.Fatal(err)
	}
	t.Logf("fetches: invalidate=%d lease=%d (%.1fx), hits=%d demotes=%d",
		res.Base.Fetches, res.Lease.Fetches, res.FetchRatio(), res.Lease.Hits, res.Lease.Demotes)

	// The pinned shape whose simulated cost is on record (fetch ratio
	// 3.27x, lease epoch 28.36 us): both are deterministic on mem, so
	// the bounds are the recorded values with 10% slack.
	const rounds = 6
	pin, err := LeaseCost(6, 48, rounds, 4, platform.Test())
	if err != nil {
		t.Fatal(err)
	}
	if err := pin.Assert(2.9); err != nil {
		t.Error(err)
	}
	if epoch := pin.Lease.SimTime / rounds; epoch > 31200*time.Nanosecond {
		t.Errorf("pinned lease epoch = %v simulated, want <= 31.2us", epoch)
	}
}

// TestLeaseCostRejectsBadShape covers the argument validation.
func TestLeaseCostRejectsBadShape(t *testing.T) {
	if _, err := LeaseCost(1, 4, 4, 3, platform.Test()); err == nil {
		t.Error("rows=1 accepted")
	}
	if _, err := LeaseCost(4, 4, 1, 3, platform.Test()); err == nil {
		t.Error("rounds=1 accepted")
	}
	if _, err := LeaseCost(4, 4, 4, 1, platform.Test()); err == nil {
		t.Error("procs=1 accepted")
	}
}
