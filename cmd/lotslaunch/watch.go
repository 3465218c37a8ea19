// Fleet watch: a live per-rank table fed by the CtrlStats/CtrlLog
// frames the ranks stream over the control protocol. On a TTY the
// table redraws in place (ANSI cursor-up); otherwise it degrades to
// throttled snapshot lines, so CI logs stay readable. Either way a
// final per-rank summary is printed once the run completes, from the
// last stats frame each rank sent before its digest.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/stats/phases"
	"repro/internal/wire"
)

// watchCols are the stat names the live table shows, in order. The
// full inventory (every counter + phase) is on each rank's /metrics
// endpoint and in the persisted node-<i>.stats artifacts; the table
// is a heartbeat, not an archive.
var watchCols = []string{
	"msgs_sent", "bytes_sent", "barriers", "obj_fetches",
	"phase_barrier_wait_ns",
}

type watcher struct {
	mu      sync.Mutex
	out     io.Writer
	tty     bool
	procs   int
	epoch   []uint32
	stats   []map[string]int64
	lastLog []string
	frames  []int
	drawn   int       // lines currently on screen (TTY redraw)
	lastOut time.Time // last snapshot print (non-TTY throttle)
}

func newWatcher(out io.Writer, procs int) *watcher {
	w := &watcher{out: out, procs: procs,
		epoch:   make([]uint32, procs),
		stats:   make([]map[string]int64, procs),
		lastLog: make([]string, procs),
		frames:  make([]int, procs),
	}
	if f, ok := out.(*os.File); ok {
		if fi, err := f.Stat(); err == nil && fi.Mode()&os.ModeCharDevice != 0 {
			w.tty = true
		}
	}
	return w
}

// OnStats ingests one rank's CtrlStats frame (the MultiprocSpec
// callback).
func (w *watcher) OnStats(node int, c wire.Ctrl) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if node < 0 || node >= w.procs {
		return
	}
	m := make(map[string]int64, len(c.Stats))
	for _, st := range c.Stats {
		m[st.Name] = st.Val
	}
	w.stats[node] = m
	w.epoch[node] = c.Epoch
	w.frames[node]++
	if w.tty {
		w.redraw()
	} else if time.Since(w.lastOut) >= 2*time.Second {
		w.lastOut = time.Now()
		w.table("watch")
	}
}

// OnLog ingests one rank's relayed log line.
func (w *watcher) OnLog(node int, line string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if node < 0 || node >= w.procs {
		return
	}
	w.lastLog[node] = line
	if w.tty {
		w.redraw()
	} else {
		fmt.Fprintf(w.out, "  [node %d] %s\n", node, line)
	}
}

// redraw repaints the in-place table. Caller holds w.mu.
func (w *watcher) redraw() {
	if w.drawn > 0 {
		fmt.Fprintf(w.out, "\x1b[%dA", w.drawn)
	}
	w.drawn = w.paint(true)
}

// table prints one non-interactive snapshot. Caller holds w.mu.
func (w *watcher) table(hdr string) {
	fmt.Fprintf(w.out, "  -- fleet %s --\n", hdr)
	w.paint(false)
}

// paint writes the table rows and returns the line count.
func (w *watcher) paint(clear bool) int {
	eol := "\n"
	if clear {
		eol = "\x1b[K\n" // wipe any longer previous line
	}
	lines := 0
	fmt.Fprintf(w.out, "  %-5s %-6s %-7s", "node", "epoch", "frames")
	for _, c := range watchCols {
		fmt.Fprintf(w.out, " %13s", shortCol(c))
	}
	fmt.Fprintf(w.out, "  %s%s", "last log", eol)
	lines++
	for i := 0; i < w.procs; i++ {
		fmt.Fprintf(w.out, "  %-5d %-6d %-7d", i, w.epoch[i], w.frames[i])
		for _, c := range watchCols {
			fmt.Fprintf(w.out, " %13d", w.stats[i][c])
		}
		fmt.Fprintf(w.out, "  %s%s", truncLog(w.lastLog[i], 40), eol)
		lines++
	}
	return lines
}

// Finish prints the closing per-rank summary from the final stats
// frame each rank sent, and releases the redraw region.
func (w *watcher) Finish() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.tty {
		w.redraw()
		w.drawn = 0 // leave the last table on screen
	}
	fmt.Fprintf(w.out, "  -- fleet summary (final stats frame per rank) --\n")
	for i := 0; i < w.procs; i++ {
		if w.frames[i] == 0 {
			fmt.Fprintf(w.out, "  node %d: no stats frames received\n", i)
			continue
		}
		m := w.stats[i]
		fmt.Fprintf(w.out,
			"  node %d: epoch=%d frames=%d msgs=%d bytes=%d barriers=%d fetches=%d\n",
			i, w.epoch[i], w.frames[i],
			m["msgs_sent"], m["bytes_sent"], m["barriers"],
			m["obj_fetches"])
		fmt.Fprintf(w.out, "    phases: %s\n", phaseSummary(m))
	}
}

// phaseSummary renders every phase kind the ranks sample — the
// CtrlStats frames ship phase_<name>_ns / phase_<name>_events for all
// of phases.Kinds(), so the summary stays exhaustive as kinds are
// added. Zero-duration phases print too: "ckpt_cut=0s/0" is signal
// (no checkpoint was cut) that a filtered line would hide.
func phaseSummary(m map[string]int64) string {
	parts := make([]string, 0, len(phases.Kinds()))
	for _, k := range phases.Kinds() {
		name := k.String()
		parts = append(parts, fmt.Sprintf("%s=%v/%d", name,
			time.Duration(m["phase_"+name+"_ns"]).Round(time.Microsecond),
			m["phase_"+name+"_events"]))
	}
	return strings.Join(parts, " ")
}

// shortCol compresses a stat name to fit a 13-char column.
func shortCol(name string) string {
	name = strings.TrimSuffix(strings.TrimPrefix(name, "phase_"), "_ns")
	if len(name) > 13 {
		return name[:13]
	}
	return name
}

func truncLog(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-2] + ".."
}
