package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/platform"
)

// The tests assert the paper's comparison *shapes* on scaled-down
// problems: who wins, in which direction ratios move, and that the
// tables render. Absolute simulated seconds are model outputs, not
// assertions.

func TestFig8LOTSBeatsJIAJIAOnMELUSOR(t *testing.T) {
	prof := platform.PIV2GFedora()
	cases := []struct {
		app     AppName
		problem int
	}{
		{AppME, 8192},
		{AppLU, 32},
		{AppSOR, 32},
	}
	for _, tc := range cases {
		cells, err := Fig8Sweep(tc.app, []int{tc.problem}, []int{4}, prof)
		if err != nil {
			t.Fatal(err)
		}
		c := cells[0]
		if c.Times[SysLOTS] >= c.Times[SysJIAJIA] {
			t.Errorf("%s: LOTS (%v) should beat JIAJIA (%v) — §4.1",
				tc.app, c.Times[SysLOTS], c.Times[SysJIAJIA])
		}
		if c.Times[SysLOTSX] > c.Times[SysLOTS] {
			t.Errorf("%s: LOTS-x (%v) should not exceed LOTS (%v)",
				tc.app, c.Times[SysLOTSX], c.Times[SysLOTS])
		}
	}
}

func TestFig8LUAdvantageGrowsWithProcs(t *testing.T) {
	// The paper attributes LU's gap to false sharing, which worsens
	// with more writers per page: the LOTS/JIAJIA ratio must shrink as
	// p grows.
	cells, err := Fig8Sweep(AppLU, []int{32}, []int{2, 8}, platform.PIV2GFedora())
	if err != nil {
		t.Fatal(err)
	}
	r2 := float64(cells[0].Times[SysLOTS]) / float64(cells[0].Times[SysJIAJIA])
	r8 := float64(cells[1].Times[SysLOTS]) / float64(cells[1].Times[SysJIAJIA])
	if r8 >= r2 {
		t.Errorf("LU advantage should grow with p: ratio p=2 %.3f, p=8 %.3f", r2, r8)
	}
}

func TestFig8Format(t *testing.T) {
	cells := []Fig8Cell{{
		App: AppSOR, Problem: 64, Procs: 4,
		Times: map[System]time.Duration{SysJIAJIA: time.Second, SysLOTS: time.Second / 2, SysLOTSX: time.Second / 2},
		Msgs:  map[System]int64{}, Bytes: map[System]int64{},
	}}
	var b bytes.Buffer
	FormatFig8(&b, cells)
	out := b.String()
	if !strings.Contains(out, "SOR") || !strings.Contains(out, "0.50") {
		t.Errorf("FormatFig8 output:\n%s", out)
	}
	FormatFig8(&b, nil) // must not panic
}

func TestOverheadBand(t *testing.T) {
	// §4.2: RX (access/mapping heavy) pays the most for large-object
	// support; every app stays under a sane bound.
	rows, err := OverheadSweep(map[AppName]int{
		AppME: 16384, AppLU: 32, AppSOR: 32, AppRX: 65536,
	}, 4, platform.PIV2GFedora())
	if err != nil {
		t.Fatal(err)
	}
	var rxOver, maxOther float64
	for _, r := range rows {
		if r.Overhead < -0.02 || r.Overhead > 0.30 {
			t.Errorf("%s overhead %.1f%% outside [0, 30%%]", r.App, 100*r.Overhead)
		}
		if r.Checks == 0 {
			t.Errorf("%s: no access checks counted", r.App)
		}
		if r.App == AppRX {
			rxOver = r.Overhead
		} else if r.Overhead > maxOther {
			maxOther = r.Overhead
		}
	}
	if rxOver <= maxOther {
		t.Errorf("RX overhead (%.1f%%) should exceed the other apps' (max %.1f%%)",
			100*rxOver, 100*maxOther)
	}
	var b bytes.Buffer
	FormatOverhead(&b, rows)
	if !strings.Contains(b.String(), "RX") {
		t.Error("FormatOverhead missing RX row")
	}
}

func TestCheckCostMeasurement(t *testing.T) {
	c, err := MeasureCheckCost(32, 2, platform.PIV2GFedora())
	if err != nil {
		t.Fatal(err)
	}
	if c.WallPerCheck <= 0 || c.WallPerCheck > 5*time.Microsecond {
		t.Errorf("wall per check = %v, want (0, 5µs]", c.WallPerCheck)
	}
	if c.SORChecksPerP == 0 {
		t.Error("SOR checks per process is zero")
	}
	if c.SORCheckShare <= 0 || c.SORCheckShare > 1 {
		t.Errorf("SOR check share = %.2f", c.SORCheckShare)
	}
	var b bytes.Buffer
	FormatCheckCost(&b, c)
	if !strings.Contains(b.String(), "checks/process") {
		t.Errorf("FormatCheckCost output:\n%s", b.String())
	}
}

func TestTable1PlatformOrdering(t *testing.T) {
	// Scale down further for test speed: the Table-1 ordering
	// (RH6.2 slowest, then RH9.0, then P4/Fedora) must hold at any
	// scale because it is driven by the disk models.
	specs := PaperTable1Rows()
	var rows []Table1Row
	for _, s := range specs {
		s.Rows = 256
		s.RowBytes = 4096
		s.Scale = 4096
		r, err := RunTable1(s)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, r)
		if r.SwapOuts == 0 {
			t.Errorf("%s: no swapping — object space must exceed the DMM area", s.Platform.Name)
		}
		if r.BytesToDisk == 0 {
			t.Errorf("%s: nothing written to disk", s.Platform.Name)
		}
		if r.DiskTime <= 0 || r.DiskTime > r.SimTime {
			t.Errorf("%s: disk time %v vs total %v", s.Platform.Name, r.DiskTime, r.SimTime)
		}
	}
	if !(rows[0].SimTime > rows[1].SimTime && rows[1].SimTime > rows[2].SimTime) {
		t.Errorf("platform ordering wrong: %v / %v / %v (want RH6.2 > RH9.0 > P4)",
			rows[0].SimTime, rows[1].SimTime, rows[2].SimTime)
	}
	// Disk dominates on the slow platforms, as in the paper (1004 of
	// 1114 seconds on RedHat 6.2).
	if frac := float64(rows[0].DiskTime) / float64(rows[0].SimTime); frac < 0.5 {
		t.Errorf("RH6.2 disk fraction = %.2f, want disk-dominated", frac)
	}
	var b bytes.Buffer
	FormatTable1(&b, rows)
	if !strings.Contains(b.String(), "RedHat6.2") {
		t.Error("FormatTable1 missing platform")
	}
}

func TestMaxSpaceExhaustsFreeDisk(t *testing.T) {
	// §4.3 capacity exhaustion, scaled 1024x down for test speed (the
	// full 117.77 GB run is `lotsbench -exp maxspace`). The mechanism
	// is identical: spill objects until the first ErrNoSpace.
	capacity := platform.XeonSMP().DiskFreeBytes >> 10 // ~117.77 MB
	res, err := RunMaxSpaceWithCapacity(4<<20, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if res.DiskCapacity-res.ReachedBytes >= int64(res.ObjectBytes) {
		t.Errorf("reached %d of %d: free disk not exhausted", res.ReachedBytes, res.DiskCapacity)
	}
	if res.Objects < 16 {
		t.Errorf("only %d objects spilled", res.Objects)
	}
	var b bytes.Buffer
	FormatMaxSpace(&b, res)
	if !strings.Contains(b.String(), "117.77 GB") {
		t.Error("FormatMaxSpace missing paper reference")
	}
}

func TestAblationShapes(t *testing.T) {
	prof := platform.PIV2GFedora()

	proto, err := AblationProtocol(4, prof)
	if err != nil {
		t.Fatal(err)
	}
	byVariant := map[string]AblationRow{}
	for _, r := range proto {
		byVariant[r.Variant] = r
	}
	// Not merely ahead: a fan-out charged as one wait, with nothing for
	// the bytes the sender serializes, puts update-broadcast at 1.1× the
	// default and erases the paper's argument against it.
	mig := byVariant["barrier=migrating-home"].SimTime
	for _, v := range []string{"barrier=fixed-home", "barrier=update-broadcast"} {
		if got := byVariant[v].SimTime; got < 3*mig {
			t.Errorf("%s takes %v on SOR, migrating-home %v: want at least 3× (§3.4 benefit 1)", v, got, mig)
		}
	}
	if !(byVariant["barrier=fixed-home"].Bytes < byVariant["barrier=update-broadcast"].Bytes) {
		t.Error("write-update broadcast should cost the most traffic (§3.4)")
	}
	if !(byVariant["lock=homeless-write-update"].SimTime < byVariant["lock=home-based-invalidate"].SimTime) {
		t.Error("homeless write-update should beat home-based locks on migratory data")
	}

	diff, err := AblationDiff(4, prof)
	if err != nil {
		t.Fatal(err)
	}
	if !(diff[0].DiffB < diff[1].DiffB) {
		t.Errorf("per-field timestamps (%d B) should carry less than chains (%d B) — Figure 7",
			diff[0].DiffB, diff[1].DiffB)
	}

	evict, err := AblationEvict(prof)
	if err != nil {
		t.Fatal(err)
	}
	if !(evict[0].SimTime < evict[1].SimTime) {
		t.Errorf("LRU+pinning (%v) should beat FIFO (%v)", evict[0].SimTime, evict[1].SimTime)
	}

	rb, err := AblationRunBarrier(4, prof)
	if err != nil {
		t.Fatal(err)
	}
	if !(rb[1].SimTime < rb[0].SimTime) {
		t.Errorf("run_barrier (%v) should beat the full barrier (%v) for lock-disciplined programs",
			rb[1].SimTime, rb[0].SimTime)
	}
	var b bytes.Buffer
	FormatAblation(&b, "t", proto)
	if !strings.Contains(b.String(), "migrating-home") {
		t.Error("FormatAblation output incomplete")
	}
}

func TestRunRejectsUnknownSystemAndApp(t *testing.T) {
	if _, err := Run(RunSpec{System: "nope", App: AppME, Problem: 64, Procs: 1}); err == nil {
		t.Error("unknown system should fail")
	}
}
