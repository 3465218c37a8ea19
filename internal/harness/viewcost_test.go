package harness

import (
	"testing"
	"time"

	"repro/internal/platform"
)

// TestViewCostSelfAsserts: at the pinned shape (sim ratio 1.82x, view
// epoch 13.35 us on record) span views must keep their simulated-time
// advantage over element-wise access, and the view epoch its cost,
// within 10%.
func TestViewCostSelfAsserts(t *testing.T) {
	const rounds = 3
	res, err := ViewCost(2048, rounds, 2, 3, platform.Test())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assert(1.63); err != nil {
		t.Error(err)
	}
	if epoch := res.View.SimTime / rounds; epoch > 14700*time.Nanosecond {
		t.Errorf("pinned view epoch = %v simulated, want <= 14.7us", epoch)
	}
	t.Logf("elem/view sim ratio %.2fx, checks %.1fx, view epoch %v",
		res.SimRatio(), res.CheckRatio(), res.View.SimTime/rounds)

	// The shape the redesign's acceptance bar was set on (3.8x simulated
	// time, 264,874x access checks on record): with enough sweeps per
	// fetch to amortize the coherence traffic, span views must win by at
	// least 3x on both.
	bar, err := ViewCost(8192, 4, 64, 3, platform.PIV2GFedora())
	if err != nil {
		t.Fatal(err)
	}
	if err := bar.Assert(3.0); err != nil {
		t.Error(err)
	}
	t.Logf("bar shape: sim ratio %.2fx, checks %.1fx", bar.SimRatio(), bar.CheckRatio())
}
