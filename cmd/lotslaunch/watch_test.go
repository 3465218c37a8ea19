package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/stats/phases"
	"repro/internal/wire"
)

func statsFrame(epoch uint32, stats ...wire.CtrlStat) wire.Ctrl {
	return wire.Ctrl{Kind: wire.CtrlStats, Epoch: epoch, Stats: stats}
}

// A zero-rank fleet (possible when every rank is filtered out of a
// recovery respawn) must not panic anywhere: frames for any node index
// are out of range and dropped, the table is header-only, and Finish
// prints just the summary banner.
func TestWatcherZeroRanks(t *testing.T) {
	var buf bytes.Buffer
	w := newWatcher(&buf, 0)
	if w.tty {
		t.Fatal("buffer-backed watcher claims to be a TTY")
	}
	w.OnStats(0, statsFrame(1, wire.CtrlStat{Name: "msgs_sent", Val: 7}))
	w.OnStats(-1, statsFrame(1))
	w.OnLog(0, "should be dropped")
	w.Finish()
	out := buf.String()
	if strings.Contains(out, "node 0") {
		t.Fatalf("zero-rank watcher rendered a rank row:\n%s", out)
	}
	if !strings.Contains(out, "-- fleet summary") {
		t.Fatalf("Finish did not print the summary banner:\n%s", out)
	}
	if strings.Contains(out, "\x1b[") {
		t.Fatalf("non-TTY output contains ANSI escapes:\n%s", out)
	}
}

// Non-TTY output degrades to throttled snapshots: the first stats
// frame prints a table immediately (lastOut is zero), frames inside
// the 2s window are absorbed silently, and the next frame past the
// window prints again. Log lines bypass the throttle.
func TestWatcherNonTTYThrottle(t *testing.T) {
	var buf bytes.Buffer
	w := newWatcher(&buf, 2)
	w.OnStats(0, statsFrame(1, wire.CtrlStat{Name: "msgs_sent", Val: 3}))
	if got := strings.Count(buf.String(), "-- fleet watch --"); got != 1 {
		t.Fatalf("first frame printed %d snapshots, want 1:\n%s", got, buf.String())
	}
	w.OnStats(1, statsFrame(1, wire.CtrlStat{Name: "msgs_sent", Val: 4}))
	w.OnStats(0, statsFrame(2, wire.CtrlStat{Name: "msgs_sent", Val: 9}))
	if got := strings.Count(buf.String(), "-- fleet watch --"); got != 1 {
		t.Fatalf("throttle leaked: %d snapshots within the window, want 1:\n%s", got, buf.String())
	}
	w.mu.Lock()
	w.lastOut = time.Now().Add(-3 * time.Second) // age past the throttle
	w.mu.Unlock()
	w.OnStats(1, statsFrame(2, wire.CtrlStat{Name: "msgs_sent", Val: 11}))
	out := buf.String()
	if got := strings.Count(out, "-- fleet watch --"); got != 2 {
		t.Fatalf("aged throttle printed %d snapshots, want 2:\n%s", got, out)
	}
	// The latest snapshot reflects every frame absorbed while throttled.
	last := out[strings.LastIndex(out, "-- fleet watch --"):]
	if !strings.Contains(last, " 9") || !strings.Contains(last, " 11") {
		t.Fatalf("snapshot missing absorbed frame values:\n%s", last)
	}
	w.OnLog(0, "barrier 7 exit")
	if !strings.Contains(buf.String(), "[node 0] barrier 7 exit") {
		t.Fatalf("log line missing from non-TTY output:\n%s", buf.String())
	}
}

// TTY redraw discipline: every repaint moves the cursor up exactly the
// number of lines previously drawn (header + one row per rank) and
// wipes each line with \x1b[K, so a shrinking cell never leaves stale
// characters behind.
func TestWatcherRedrawCursorMath(t *testing.T) {
	var buf bytes.Buffer
	w := newWatcher(&buf, 3)
	w.tty = true // force the in-place path onto the buffer
	w.OnStats(0, statsFrame(1, wire.CtrlStat{Name: "bytes_sent", Val: 123456}))
	first := buf.String()
	if strings.Contains(first, "\x1b[A") || strings.Contains(first, fmt.Sprintf("\x1b[%dA", 4)) {
		t.Fatalf("first paint moved the cursor before anything was drawn:\n%q", first)
	}
	wantLines := 1 + 3 // header + rows
	if w.drawn != wantLines {
		t.Fatalf("drawn = %d after first paint, want %d", w.drawn, wantLines)
	}
	buf.Reset()
	w.OnStats(1, statsFrame(1))
	second := buf.String()
	if !strings.HasPrefix(second, fmt.Sprintf("\x1b[%dA", wantLines)) {
		t.Fatalf("redraw cursor-up count wrong, want \\x1b[%dA prefix:\n%q", wantLines, second)
	}
	if got := strings.Count(second, "\x1b[K\n"); got != wantLines {
		t.Fatalf("redraw wiped %d lines, want %d:\n%q", got, wantLines, second)
	}
	w.Finish()
	if w.drawn != 0 {
		t.Fatalf("Finish left drawn = %d, want 0 (table released)", w.drawn)
	}
}

// Column headers are clamped to the 13-char cell so a long phase
// metric name cannot shear the table, and relayed log lines are
// truncated with an ellipsis.
func TestWatcherWidthClamping(t *testing.T) {
	for in, want := range map[string]string{
		"phase_barrier_wait_ns":           "barrier_wait",
		"msgs_sent":                       "msgs_sent",
		"phase_a_very_long_phase_name_ns": "a_very_long_p",
	} {
		if got := shortCol(in); got != want {
			t.Errorf("shortCol(%q) = %q, want %q", in, got, want)
		}
		if got := shortCol(in); len(got) > 13 {
			t.Errorf("shortCol(%q) = %q exceeds 13 chars", in, got)
		}
	}
	long := strings.Repeat("x", 60)
	if got := truncLog(long, 40); len(got) != 40 || !strings.HasSuffix(got, "..") {
		t.Errorf("truncLog clamped to %d chars (%q), want 40 with ellipsis", len(got), got)
	}
	if got := truncLog("short", 40); got != "short" {
		t.Errorf("truncLog mangled a short line: %q", got)
	}
	// Every live-table column must already fit its cell.
	for _, c := range watchCols {
		if len(shortCol(c)) > 13 {
			t.Errorf("watch column %q renders wider than its cell", c)
		}
	}
}

// The final summary renders a timing line covering every phase kind
// the ranks sample, not a hand-picked subset.
func TestWatcherFinishAllPhases(t *testing.T) {
	var buf bytes.Buffer
	w := newWatcher(&buf, 2)
	frame := statsFrame(5,
		wire.CtrlStat{Name: "msgs_sent", Val: 42},
		wire.CtrlStat{Name: "phase_barrier_wait_ns", Val: int64(3 * time.Millisecond)},
		wire.CtrlStat{Name: "phase_barrier_wait_events", Val: 5},
		wire.CtrlStat{Name: "phase_ckpt_cut_ns", Val: int64(time.Millisecond)},
		wire.CtrlStat{Name: "phase_ckpt_cut_events", Val: 1},
	)
	w.OnStats(0, frame)
	w.Finish()
	out := buf.String()
	for _, k := range phases.Kinds() {
		if !strings.Contains(out, k.String()+"=") {
			t.Errorf("summary missing phase %q:\n%s", k.String(), out)
		}
	}
	if !strings.Contains(out, "barrier_wait=3ms/5") {
		t.Errorf("summary missing sampled barrier_wait timing:\n%s", out)
	}
	if !strings.Contains(out, "ckpt_cut=1ms/1") {
		t.Errorf("summary missing sampled ckpt_cut timing:\n%s", out)
	}
	if !strings.Contains(out, "node 1: no stats frames received") {
		t.Errorf("summary missing silent-rank marker:\n%s", out)
	}
}
