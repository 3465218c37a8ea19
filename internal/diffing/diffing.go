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
//
// Every diff comes from one comparison loop, scan, which reads object
// and twin eight bytes at a time and reports runs as offsets; what
// differs between Compute, ComputeStamped, StampChanged and
// AppendStamped is what they do with the runs. A structured diff's run
// data shares one allocation. The two forms the barrier's critical path
// uses never build a structured diff at all: AppendStamped writes the
// encoding from the object's bytes into the outgoing payload, and
// ApplyStampedEncoded merges an incoming payload's runs into the home's
// bytes in place, allocating a stamp table only when a run carries a
// lock version. The encoded bytes are the contract; oracle_test.go keeps
// the word-at-a-time loops they are tested against.
package diffing

import (
	"encoding/binary"
	"fmt"
	"sync"

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

// span is one run as the scan reports it: the bytes [lo, hi) of the
// object, whose words carry (ver, lock).
type span struct {
	lo, hi int
	ver    uint32
	lock   uint16
}

// scan is the one comparison loop behind every diff: it walks cur
// against twin (equal lengths) and appends one span per run to runs, in
// offset order. A run is a maximal stretch of modified 4-byte words
// whose stamps of the current epoch agree; stamps of other epochs, and
// words stamps does not cover, count as blank, so with nil stamps runs
// split only at unmodified words. Words sit at multiples of WordSize; a
// short last word is modified if any of its bytes is, and a run that
// reaches it ends at len(cur).
//
// The loop compares eight bytes at a time and looks at the two words of
// a pair only when the pair differs; stretches of equal pairs, and of
// pairs modified in both words with no stamp to split them, each have a
// loop that does nothing else.
func scan(runs []span, cur, twin []byte, stamps []object.WordStamp, epoch uint32) []span {
	n := len(cur)
	twin = twin[:n]
	open := false // runs' last span is still growing
	for i := 0; i < n; {
		var x uint64 // low half: the word at i, high half: the word at i+WordSize
		if i+8 <= n {
			x = binary.LittleEndian.Uint64(cur[i:]) ^ binary.LittleEndian.Uint64(twin[i:])
		} else {
			var a, b [8]byte
			copy(a[:], cur[i:])
			copy(b[:], twin[i:])
			x = binary.LittleEndian.Uint64(a[:]) ^ binary.LittleEndian.Uint64(b[:])
		}
		if x == 0 {
			open = false
			for i += 8; i+8 <= n && binary.LittleEndian.Uint64(cur[i:]) == binary.LittleEndian.Uint64(twin[i:]); i += 8 {
			}
			continue
		}
		for off := i; off < i+8 && off < n; off, x = off+object.WordSize, x>>32 {
			if uint32(x) == 0 {
				open = false
				continue
			}
			var ver uint32
			var lock uint16
			if w := off / object.WordSize; w < len(stamps) && stamps[w].Epoch == epoch {
				ver, lock = stamps[w].Ver, stamps[w].Lock
			}
			if last := len(runs) - 1; !open || runs[last].ver != ver || runs[last].lock != lock {
				runs = append(runs, span{lo: off, ver: ver, lock: lock})
				open = true
			}
			runs[len(runs)-1].hi = min(off+object.WordSize, n)
		}
		i += 8
		if open && stamps == nil {
			j := i
			for ; j+8 <= n; j += 8 {
				x := binary.LittleEndian.Uint64(cur[j:]) ^ binary.LittleEndian.Uint64(twin[j:])
				if uint32(x) == 0 || x>>32 == 0 {
					break
				}
			}
			if j > i {
				runs[len(runs)-1].hi = j
				i = j
			}
		}
	}
	return runs
}

// spanPool holds the scratch slices scans append to, so that a diff's
// own storage can be allocated after the scan, once, at its final size.
var spanPool = sync.Pool{New: func() any { return new([]span) }}

// withSpans lends find a scratch slice to append runs to, then calls use
// with the runs and the bytes they cover. The runs are scratch: use
// copies out what it keeps.
func withSpans(find func(runs []span) []span, use func(runs []span, bytes int)) {
	scratch := spanPool.Get().(*[]span)
	runs := find((*scratch)[:0])
	bytes := 0
	for _, r := range runs {
		bytes += r.hi - r.lo
	}
	use(runs, bytes)
	*scratch = runs
	spanPool.Put(scratch)
}

// withRuns is withSpans over the runs of cur against twin.
func withRuns(cur, twin []byte, stamps []object.WordStamp, epoch uint32, use func(runs []span, bytes int)) {
	if len(cur) != len(twin) {
		panic(fmt.Sprintf("diffing: length mismatch %d vs %d", len(cur), len(twin)))
	}
	withSpans(func(runs []span) []span { return scan(runs, cur, twin, stamps, epoch) }, use)
}

// carve appends src to a diff's data arena and returns the appended
// bytes with their capacity cut off at their end, so that appending to
// one run's Data cannot overwrite the next run's.
func carve(arena *[]byte, src []byte) []byte {
	k := len(*arena)
	*arena = append(*arena, src...)
	return (*arena)[k:len(*arena):len(*arena)]
}

// newDiff copies the runs out of cur into a diff whose data shares one
// allocation.
func newDiff(cur []byte, runs []span, bytes int) Diff {
	if len(runs) == 0 {
		return Diff{}
	}
	d := Diff{Runs: make([]Run, len(runs))}
	data := make([]byte, 0, bytes)
	for i, r := range runs {
		d.Runs[i] = Run{Off: uint32(r.lo), Data: carve(&data, cur[r.lo:r.hi])}
	}
	return d
}

// Compute diffs cur against its twin at word granularity, coalescing
// adjacent modified words into runs. cur and twin must be equal length.
func Compute(cur, twin []byte) (d Diff) {
	withRuns(cur, twin, nil, 0, func(runs []span, bytes int) { d = newDiff(cur, runs, bytes) })
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
	w.Grow(d.EncodedSize())
	w.U32(uint32(len(d.Runs)))
	for _, r := range d.Runs {
		w.U32(r.Off)
		w.Bytes32(r.Data)
	}
}

// DecodeDiff reads a diff encoded by Encode. The runs' data aliases the
// payload r wraps: a delivered message's payload is a heap buffer of its
// own, so a diff decoded from one may be kept as long as the diff is.
func DecodeDiff(r *wire.Reader) (Diff, error) {
	n := r.Count(8) // off + data length
	if r.Err() != nil {
		return Diff{}, r.Err()
	}
	d := Diff{Runs: make([]Run, 0, n)}
	for i := 0; i < n; i++ {
		off := r.U32()
		data := r.Bytes32InPlace()
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
func StampChanged(stamps []object.WordStamp, cur, twin []byte, st object.WordStamp) (n int) {
	withRuns(cur, twin, nil, 0, func(runs []span, _ int) {
		for _, r := range runs {
			for w := r.lo / object.WordSize; w*object.WordSize < r.hi; w++ {
				stamps[w] = st
				n++
			}
		}
	})
	return n
}

// FilterByStamp builds an on-demand diff of cur containing exactly the
// words whose stamp satisfies include — typically "newer than what the
// requester has seen under this lock". Because the responder holds the
// current full data plus per-word stamps, outdated data is never sent
// (Figure 7b).
func FilterByStamp(cur []byte, stamps []object.WordStamp, include func(object.WordStamp) bool) (d Diff) {
	withSpans(func(runs []span) []span {
		open := false
		for w := 0; w < len(stamps) && w*object.WordSize < len(cur); w++ {
			if !include(stamps[w]) {
				open = false
				continue
			}
			if !open {
				runs = append(runs, span{lo: w * object.WordSize})
				open = true
			}
			runs[len(runs)-1].hi = min((w+1)*object.WordSize, len(cur))
		}
		return runs
	}, func(runs []span, bytes int) { d = newDiff(cur, runs, bytes) })
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
func ComputeStamped(cur, twin []byte, stamps []object.WordStamp, epoch uint32) (d StampedDiff) {
	withRuns(cur, twin, stamps, epoch, func(runs []span, bytes int) {
		if len(runs) == 0 {
			return
		}
		d.Runs = make([]StampedRun, len(runs))
		data := make([]byte, 0, bytes)
		for i, r := range runs {
			d.Runs[i] = StampedRun{Off: uint32(r.lo), Data: carve(&data, cur[r.lo:r.hi]), Ver: r.ver, Lock: r.lock}
		}
	})
	return d
}

// stampedRunHeader is the encoded size of a stamped run before its
// data: off (4) + ver (4) + lock (2) + data length (4).
const stampedRunHeader = 4 + 4 + 2 + 4

// AppendStamped appends to w the encoding of cur's stamped diff against
// twin — byte for byte what ComputeStamped(cur, twin, stamps,
// epoch).Encode(w) appends — straight from cur, without building the
// runs in between, and returns the bytes of data the diff carries.
func AppendStamped(w *wire.Buffer, cur, twin []byte, stamps []object.WordStamp, epoch uint32) (bytes int) {
	withRuns(cur, twin, stamps, epoch, func(runs []span, n int) {
		bytes = n
		w.Grow(4 + len(runs)*stampedRunHeader + n)
		w.U32(uint32(len(runs)))
		for _, r := range runs {
			w.U32(uint32(r.lo)).U32(r.ver).U16(r.lock).Bytes32(cur[r.lo:r.hi])
		}
	})
	return bytes
}

// ApplyStamped merges d into dst under the version rule: a word is
// written iff the incoming version is strictly newer than the local
// stamp for the same epoch (local stamps from other epochs count as
// blank). Applied words update the local stamps. It returns the number
// of words applied.
func ApplyStamped(dst []byte, stamps []object.WordStamp, d StampedDiff, epoch uint32) (int, error) {
	applied := 0
	for _, r := range d.Runs {
		n, err := applyStampedRun(dst, stamps, r, epoch)
		applied += n
		if err != nil {
			return applied, err
		}
	}
	return applied, nil
}

// applyStampedRun is ApplyStamped for one run. Where stamps cover
// nothing no word can be held back and none is recorded, so the run is
// one copy.
func applyStampedRun(dst []byte, stamps []object.WordStamp, r StampedRun, epoch uint32) (int, error) {
	end := int(r.Off) + len(r.Data)
	if end > len(dst) {
		return 0, fmt.Errorf("diffing: stamped run [%d,%d) exceeds object size %d", r.Off, end, len(dst))
	}
	if len(stamps) == 0 {
		copy(dst[r.Off:end], r.Data)
		return (len(r.Data) + object.WordSize - 1) / object.WordSize, nil
	}
	applied := 0
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
		hi := min(off+object.WordSize, end)
		copy(dst[off:hi], r.Data[off-int(r.Off):hi-int(r.Off)])
		if w < len(stamps) {
			stamps[w] = object.WordStamp{Ver: r.Ver, Lock: r.Lock, Epoch: epoch}
		}
		applied++
	}
	return applied, nil
}

// ApplyStampedEncoded decodes a stamped diff from r and merges it into
// dst, c's data, run by run as ApplyStamped would, copying each run's
// bytes from r's payload to dst and nowhere else. c's stamp table is
// allocated only when a run carries a version: a run of version 0 onto
// an object without stamps leaves nothing to remember, because a stamp
// {Ver: 0, Lock: 0, Epoch: epoch} reads as blank to every reader — the
// merge above, ComputeStamped's run splitting, and a lock grant's "newer
// than the requester knows". It returns the bytes of data the diff
// carried; on an error the runs before the bad one stay applied, as with
// ApplyStamped.
func ApplyStampedEncoded(dst []byte, c *object.Control, r *wire.Reader, epoch uint32) (int, error) {
	bytes := 0
	for i, n := 0, r.Count(stampedRunHeader); i < n; i++ {
		off, ver, lock := r.U32(), r.U32(), r.U16()
		run := StampedRun{Off: off, Data: r.Bytes32InPlace(), Ver: ver, Lock: lock}
		if r.Err() != nil {
			break
		}
		if run.Ver != 0 {
			c.EnsureStamps()
		}
		if _, err := applyStampedRun(dst, c.Stamps, run, epoch); err != nil {
			return bytes, err
		}
		bytes += len(run.Data)
	}
	return bytes, r.Err()
}

// Encode appends the stamped diff to w.
func (d StampedDiff) Encode(w *wire.Buffer) {
	w.Grow(4 + len(d.Runs)*stampedRunHeader + d.Bytes())
	w.U32(uint32(len(d.Runs)))
	for _, r := range d.Runs {
		w.U32(r.Off).U32(r.Ver).U16(r.Lock)
		w.Bytes32(r.Data)
	}
}

// DecodeStampedDiff reads a stamped diff encoded by Encode; like
// DecodeDiff's, its runs alias the payload r wraps.
func DecodeStampedDiff(r *wire.Reader) (StampedDiff, error) {
	n := r.Count(stampedRunHeader)
	if r.Err() != nil {
		return StampedDiff{}, r.Err()
	}
	d := StampedDiff{Runs: make([]StampedRun, 0, n)}
	for i := 0; i < n; i++ {
		off := r.U32()
		ver := r.U32()
		lock := r.U16()
		data := r.Bytes32InPlace()
		if r.Err() != nil {
			return StampedDiff{}, r.Err()
		}
		d.Runs = append(d.Runs, StampedRun{Off: off, Data: data, Ver: ver, Lock: lock})
	}
	return d, nil
}
