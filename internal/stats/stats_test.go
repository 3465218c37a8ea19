package stats

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestCountersSnapSub(t *testing.T) {
	var c Counters
	c.MsgsSent.Add(10)
	c.BytesSent.Add(1000)
	s1 := c.Snap()
	c.MsgsSent.Add(5)
	c.DiskReads.Add(2)
	s2 := c.Snap()
	d := s2.Sub(s1)
	if d.MsgsSent != 5 {
		t.Errorf("MsgsSent delta = %d, want 5", d.MsgsSent)
	}
	if d.BytesSent != 0 {
		t.Errorf("BytesSent delta = %d, want 0", d.BytesSent)
	}
	if d.DiskReads != 2 {
		t.Errorf("DiskReads delta = %d, want 2", d.DiskReads)
	}
}

// TestSnapCoversEveryCounter: each counter lands in the Snapshot field
// of its own name and in its own Fields entry, and Sub/Add touch all of
// them.
func TestSnapCoversEveryCounter(t *testing.T) {
	var c Counters
	cv := reflect.ValueOf(&c).Elem()
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).Addr().Interface().(*atomic.Int64).Store(int64(i + 1))
	}
	s := c.Snap()
	sv := reflect.ValueOf(s)
	fs := s.Fields()
	if len(fs) != cv.NumField() || len(FieldNames()) != len(fs) {
		t.Fatalf("%d counters, %d fields, %d names", cv.NumField(), len(fs), len(FieldNames()))
	}
	for i, f := range fs {
		name := cv.Type().Field(i).Name
		if got := sv.FieldByName(name).Int(); got != int64(i+1) || f.Value != got {
			t.Errorf("counter %s = %d: Snapshot.%s = %d, Fields()[%d] = %s %d", name, i+1, name, got, i, f.Name, f.Value)
		}
	}
	if s.Sub(s) != (Snapshot{}) || s.Add(s).Sub(s) != s {
		t.Errorf("Sub/Add miss a field: s-s = %+v", s.Sub(s))
	}
}

func TestSnapshotAdd(t *testing.T) {
	a := Snapshot{MsgsSent: 3, DiffBytes: 7}
	b := Snapshot{MsgsSent: 4, Barriers: 1}
	sum := a.Add(b)
	if sum.MsgsSent != 7 || sum.DiffBytes != 7 || sum.Barriers != 1 {
		t.Errorf("Add = %+v", sum)
	}
}

func TestSnapshotAddSubRoundTrip(t *testing.T) {
	f := func(a, b int64) bool {
		s := Snapshot{MsgsSent: a, BytesSent: b}
		o := Snapshot{MsgsSent: b, BytesSent: a}
		return s.Add(o).Sub(o) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSnapshotStringOmitsZeros(t *testing.T) {
	s := Snapshot{MsgsSent: 2}
	got := s.String()
	if !strings.Contains(got, "msgs_sent=2") {
		t.Errorf("String() = %q, want msgs_sent=2", got)
	}
	if strings.Contains(got, "barriers") {
		t.Errorf("String() = %q, should omit zero counters", got)
	}
}

func TestSimClockAdvanceMerge(t *testing.T) {
	var c SimClock
	c.Advance(10 * time.Millisecond)
	if got := c.Now(); got != 10*time.Millisecond {
		t.Fatalf("Now = %v", got)
	}
	// Merge backward is a no-op.
	if got := c.MergeTo(5 * time.Millisecond); got != 10*time.Millisecond {
		t.Fatalf("MergeTo(5ms) = %v", got)
	}
	// Merge forward jumps.
	if got := c.MergeTo(30 * time.Millisecond); got != 30*time.Millisecond {
		t.Fatalf("MergeTo(30ms) = %v", got)
	}
	c.Advance(-time.Second) // negative is ignored
	if got := c.Now(); got != 30*time.Millisecond {
		t.Fatalf("Now after negative advance = %v", got)
	}
	c.Reset()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now after reset = %v", got)
	}
}

func TestSimClockConcurrent(t *testing.T) {
	var c SimClock
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); got != 8000*time.Nanosecond {
		t.Fatalf("Now = %v, want 8000ns", got)
	}
}

func TestSimClockMergeMonotone(t *testing.T) {
	f := func(a, b uint32) bool {
		var c SimClock
		c.Advance(time.Duration(a))
		after := c.MergeTo(time.Duration(b))
		return after >= time.Duration(a) && after >= time.Duration(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSimClockStaysOnStack: a timeline that is merged, advanced and read
// where it was declared costs no allocation, so a request handler can
// keep its service timeline in a local.
func TestSimClockStaysOnStack(t *testing.T) {
	var sink time.Duration
	allocs := testing.AllocsPerRun(100, func() {
		var c SimClock
		c.MergeTo(sink + time.Microsecond)
		c.Advance(time.Nanosecond)
		sink = c.Now()
	})
	if allocs != 0 {
		t.Errorf("a local SimClock allocates %v times per use, want 0", allocs)
	}
}

func TestMaxOf(t *testing.T) {
	if MaxOf() != 0 {
		t.Error("MaxOf() should be 0")
	}
	if got := MaxOf(time.Second, 3*time.Second, 2*time.Second); got != 3*time.Second {
		t.Errorf("MaxOf = %v", got)
	}
}

func TestTableRendersLiveColumnsOnly(t *testing.T) {
	snaps := []Snapshot{{MsgsSent: 1}, {MsgsSent: 2}}
	got := Table(snaps)
	if !strings.Contains(got, "msgs") {
		t.Errorf("Table missing msgs column:\n%s", got)
	}
	if strings.Contains(got, "dskRd") {
		t.Errorf("Table should omit all-zero dskRd column:\n%s", got)
	}
	if lines := strings.Count(got, "\n"); lines != 3 {
		t.Errorf("Table has %d lines, want 3:\n%s", lines, got)
	}
}

func TestPercentiles(t *testing.T) {
	ds := []time.Duration{4, 1, 3, 2, 5}
	got := Percentiles(ds, 0, 0.5, 1)
	want := []time.Duration{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Percentiles[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if out := Percentiles(nil, 0.5); out[0] != 0 {
		t.Errorf("Percentiles(nil) = %v", out)
	}
	// Out-of-range quantiles clamp.
	got = Percentiles(ds, -1, 2)
	if got[0] != 1 || got[1] != 5 {
		t.Errorf("clamped Percentiles = %v", got)
	}
}
