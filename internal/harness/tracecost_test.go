package harness

import (
	"testing"

	"repro/internal/platform"
)

// TestTraceCostSelfAsserts holds the bar that tracing observes and
// never participates: with Config.Trace on, the turn-ordered lock +
// barrier workload ends in byte-identical state at an equal simulated
// time with an equal message count, records events (none with tracing
// off), and every rank's export is valid trace JSON. The workload is a
// pure function of its config, so the equalities are exact and there is
// no retry.
func TestTraceCostSelfAsserts(t *testing.T) {
	res, err := TraceCost(4, 8, 64, platform.PIV2GFedora())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sim %v, %d msgs, %d events; wall off %v on %v",
		res.On.SimTime, res.On.Msgs, res.On.Events, res.Off.Wall, res.On.Wall)
}
