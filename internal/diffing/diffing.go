// Package diffing implements twins and diffs — the runtime encoding of
// object updates (§3.5).
//
// Like TreadMarks, LOTS sends diffs instead of whole objects when
// updates are sparse. A twin (a copy of the object taken before the
// first write in an interval) is compared word-by-word with the current
// data to produce runs of modified bytes. LOTS additionally associates
// lock and timestamp information with each field (word) of the object,
// so the diff a requester receives can be computed on demand against the
// requester's knowledge, eliminating the diff accumulation problem
// (Figure 7b). The accumulating variant (Figure 7a, TreadMarks-style
// diff chains) is also implemented here for the ablation benchmark.
package diffing

import (
	"fmt"

	"repro/internal/object"
	"repro/internal/wire"
)

// Run is one contiguous span of modified bytes.
type Run struct {
	Off  uint32
	Data []byte
}

// Diff is an ordered, non-overlapping set of modified-byte runs for one
// object.
type Diff struct {
	Runs []Run
}

// Empty reports whether the diff carries no updates.
func (d Diff) Empty() bool { return len(d.Runs) == 0 }

// Bytes returns the total payload bytes carried by the diff.
func (d Diff) Bytes() int {
	n := 0
	for _, r := range d.Runs {
		n += len(r.Data)
	}
	return n
}

// EncodedSize returns the wire size of the encoded diff.
func (d Diff) EncodedSize() int {
	n := 4 // run count
	for _, r := range d.Runs {
		n += 8 + len(r.Data) // off + len + data
	}
	return n
}

// MakeTwin returns an independent copy of data, to be kept in the twin
// area until the next synchronization point (§3.2).
func MakeTwin(data []byte) []byte {
	return append([]byte(nil), data...)
}

// wordsEqual compares the 4-byte word at off (handling a short tail).
func wordsEqual(a, b []byte, off int) bool {
	end := off + object.WordSize
	if end > len(a) {
		end = len(a)
	}
	for i := off; i < end; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Compute diffs cur against its twin at word granularity, coalescing
// adjacent modified words into runs. cur and twin must be equal length.
func Compute(cur, twin []byte) Diff {
	if len(cur) != len(twin) {
		panic(fmt.Sprintf("diffing: length mismatch %d vs %d", len(cur), len(twin)))
	}
	var d Diff
	runStart := -1
	flush := func(end int) {
		if runStart >= 0 {
			d.Runs = append(d.Runs, Run{
				Off:  uint32(runStart),
				Data: append([]byte(nil), cur[runStart:end]...),
			})
			runStart = -1
		}
	}
	for off := 0; off < len(cur); off += object.WordSize {
		if wordsEqual(cur, twin, off) {
			flush(off)
			continue
		}
		if runStart < 0 {
			runStart = off
		}
	}
	flush(len(cur))
	return d
}

// Apply writes the diff's runs into dst.
func Apply(dst []byte, d Diff) error {
	for _, r := range d.Runs {
		end := int(r.Off) + len(r.Data)
		if end > len(dst) {
			return fmt.Errorf("diffing: run [%d,%d) exceeds object size %d", r.Off, end, len(dst))
		}
		copy(dst[r.Off:end], r.Data)
	}
	return nil
}

// Encode appends the diff to w: [runCount][off,len,data]...
func (d Diff) Encode(w *wire.Buffer) {
	w.U32(uint32(len(d.Runs)))
	for _, r := range d.Runs {
		w.U32(r.Off)
		w.Bytes32(r.Data)
	}
}

// DecodeDiff reads a diff encoded by Encode.
func DecodeDiff(r *wire.Reader) (Diff, error) {
	n := r.Count(8) // off + data length
	if r.Err() != nil {
		return Diff{}, r.Err()
	}
	d := Diff{Runs: make([]Run, 0, n)}
	for i := 0; i < n; i++ {
		off := r.U32()
		data := r.Bytes32()
		if r.Err() != nil {
			return Diff{}, r.Err()
		}
		d.Runs = append(d.Runs, Run{Off: off, Data: data})
	}
	return d, nil
}

// StampChanged updates stamps for every word that differs between cur
// and twin, recording st as the word's last writer. It returns the
// number of words stamped. This is the release-time half of the
// per-field timestamp scheme (§3.5).
func StampChanged(stamps []object.WordStamp, cur, twin []byte, st object.WordStamp) int {
	n := 0
	for off := 0; off < len(cur); off += object.WordSize {
		if !wordsEqual(cur, twin, off) {
			stamps[off/object.WordSize] = st
			n++
		}
	}
	return n
}

// FilterByStamp builds an on-demand diff of cur containing exactly the
// words whose stamp satisfies include — typically "newer than what the
// requester has seen under this lock". Because the responder holds the
// current full data plus per-word stamps, outdated data is never sent
// (Figure 7b).
func FilterByStamp(cur []byte, stamps []object.WordStamp, include func(object.WordStamp) bool) Diff {
	var d Diff
	runStart := -1
	flush := func(end int) {
		if runStart >= 0 {
			d.Runs = append(d.Runs, Run{
				Off:  uint32(runStart),
				Data: append([]byte(nil), cur[runStart:end]...),
			})
			runStart = -1
		}
	}
	for off := 0; off < len(cur); off += object.WordSize {
		w := off / object.WordSize
		if w >= len(stamps) || !include(stamps[w]) {
			flush(off)
			continue
		}
		if runStart < 0 {
			runStart = off
		}
	}
	flush(len(cur))
	return d
}

// Chain is the TreadMarks-style accumulated diff history for one object:
// every release appends a timestamped diff, and a requester must receive
// every diff newer than its knowledge — including words repeated across
// entries. This reproduces the diff accumulation problem (Figure 7a) for
// the ablation.
type Chain struct {
	entries []chainEntry
}

type chainEntry struct {
	ver  uint32
	diff Diff
}

// Append records the diff produced at version ver.
func (c *Chain) Append(ver uint32, d Diff) {
	if d.Empty() {
		return
	}
	c.entries = append(c.entries, chainEntry{ver: ver, diff: d})
}

// Since returns every diff with version > known, in version order, and
// the total bytes that must travel (including redundancy).
func (c *Chain) Since(known uint32) ([]Diff, int) {
	entries, bytes := c.SinceEntries(known)
	out := make([]Diff, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.Diff)
	}
	return out, bytes
}

// Entry is a versioned chain element.
type Entry struct {
	Ver  uint32
	Diff Diff
}

// SinceEntries is Since with the version of each diff, for protocols
// that must forward the history (the acquirer stores what it receives,
// so accumulation compounds exactly as in Figure 7a).
func (c *Chain) SinceEntries(known uint32) ([]Entry, int) {
	var out []Entry
	bytes := 0
	for _, e := range c.entries {
		if e.ver > known {
			out = append(out, Entry{Ver: e.ver, Diff: e.diff})
			bytes += e.diff.Bytes()
		}
	}
	return out, bytes
}

// Truncate discards entries with version <= upTo (after a barrier has
// reconciled everything).
func (c *Chain) Truncate(upTo uint32) {
	keep := c.entries[:0]
	for _, e := range c.entries {
		if e.ver > upTo {
			keep = append(keep, e)
		}
	}
	c.entries = keep
}

// Len returns the number of stored diffs.
func (c *Chain) Len() int { return len(c.entries) }

// StoredBytes returns the bytes held across all stored diffs — the
// bookkeeping cost the migrating-home barrier protocol lets LOTS free
// (§3.4, third benefit).
func (c *Chain) StoredBytes() int {
	n := 0
	for _, e := range c.entries {
		n += e.diff.Bytes()
	}
	return n
}

// StampedRun is a run of modified bytes carrying the synchronization
// version under which its words were written. Runs split at stamp
// boundaries, so a run's stamp is uniform.
type StampedRun struct {
	Off  uint32
	Data []byte
	Ver  uint32
	Lock uint16
}

// StampedDiff is a version-carrying diff. It is used for barrier
// reconciliation and home flushes, where diffs from several writers can
// arrive at the home in any order: the per-word versions (§3.5) let the
// receiver apply each word only if the incoming write is newer than the
// one it already holds, so stale lock-scope values can never clobber
// fresher ones.
type StampedDiff struct {
	Runs []StampedRun
}

// Empty reports whether the diff carries no updates.
func (d StampedDiff) Empty() bool { return len(d.Runs) == 0 }

// Bytes returns the total payload bytes carried.
func (d StampedDiff) Bytes() int {
	n := 0
	for _, r := range d.Runs {
		n += len(r.Data)
	}
	return n
}

// ComputeStamped diffs cur against twin at word granularity, labelling
// each run with the word's stamp. Stamps from epochs other than the
// current one are treated as blank: barriers reconcile everything, so
// lock versions are only meaningful within one epoch. Adjacent changed
// words merge only when their stamps agree.
func ComputeStamped(cur, twin []byte, stamps []object.WordStamp, epoch uint32) StampedDiff {
	if len(cur) != len(twin) {
		panic(fmt.Sprintf("diffing: length mismatch %d vs %d", len(cur), len(twin)))
	}
	var d StampedDiff
	runStart := -1
	var runStamp object.WordStamp
	flush := func(end int) {
		if runStart >= 0 {
			d.Runs = append(d.Runs, StampedRun{
				Off:  uint32(runStart),
				Data: append([]byte(nil), cur[runStart:end]...),
				Ver:  runStamp.Ver,
				Lock: runStamp.Lock,
			})
			runStart = -1
		}
	}
	stampAt := func(off int) object.WordStamp {
		w := off / object.WordSize
		if w < len(stamps) && stamps[w].Epoch == epoch {
			return stamps[w]
		}
		return object.WordStamp{}
	}
	for off := 0; off < len(cur); off += object.WordSize {
		if wordsEqual(cur, twin, off) {
			flush(off)
			continue
		}
		st := stampAt(off)
		if runStart >= 0 && (st.Ver != runStamp.Ver || st.Lock != runStamp.Lock) {
			flush(off)
		}
		if runStart < 0 {
			runStart = off
			runStamp = st
		}
	}
	flush(len(cur))
	return d
}

// ApplyStamped merges d into dst under the version rule: a word is
// written iff the incoming version is strictly newer than the local
// stamp for the same epoch (local stamps from other epochs count as
// blank). Applied words update the local stamps. It returns the number
// of words applied.
func ApplyStamped(dst []byte, stamps []object.WordStamp, d StampedDiff, epoch uint32) (int, error) {
	applied := 0
	for _, r := range d.Runs {
		end := int(r.Off) + len(r.Data)
		if end > len(dst) {
			return applied, fmt.Errorf("diffing: stamped run [%d,%d) exceeds object size %d", r.Off, end, len(dst))
		}
		for off := int(r.Off); off < end; off += object.WordSize {
			w := off / object.WordSize
			var localVer uint32
			if w < len(stamps) && stamps[w].Epoch == epoch {
				localVer = stamps[w].Ver
			}
			ok := false
			if r.Ver == 0 {
				ok = localVer == 0
			} else {
				ok = r.Ver > localVer
			}
			if !ok {
				continue
			}
			hi := off + object.WordSize
			if hi > end {
				hi = end
			}
			copy(dst[off:hi], r.Data[off-int(r.Off):hi-int(r.Off)])
			if w < len(stamps) {
				stamps[w] = object.WordStamp{Ver: r.Ver, Lock: r.Lock, Epoch: epoch}
			}
			applied++
		}
	}
	return applied, nil
}

// Encode appends the stamped diff to w.
func (d StampedDiff) Encode(w *wire.Buffer) {
	w.U32(uint32(len(d.Runs)))
	for _, r := range d.Runs {
		w.U32(r.Off).U32(r.Ver).U16(r.Lock)
		w.Bytes32(r.Data)
	}
}

// DecodeStampedDiff reads a stamped diff encoded by Encode.
func DecodeStampedDiff(r *wire.Reader) (StampedDiff, error) {
	n := r.Count(14) // off + ver + lock + data length
	if r.Err() != nil {
		return StampedDiff{}, r.Err()
	}
	d := StampedDiff{Runs: make([]StampedRun, 0, n)}
	for i := 0; i < n; i++ {
		off := r.U32()
		ver := r.U32()
		lock := r.U16()
		data := r.Bytes32()
		if r.Err() != nil {
			return StampedDiff{}, r.Err()
		}
		d.Runs = append(d.Runs, StampedRun{Off: off, Data: data, Ver: ver, Lock: lock})
	}
	return d, nil
}
