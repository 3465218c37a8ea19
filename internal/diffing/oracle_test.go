package diffing

// The scan loops and the per-word merge as they stood before the
// word-wide engine, kept verbatim as the reference the differential
// tests and FuzzScanAgainstOracle compare against: one wordsEqual call
// per 4-byte word, one allocation per run, one stamp write per applied
// word. Slow and obviously right.

import (
	"fmt"

	"repro/internal/object"
)

// oracleWordsEqual compares the 4-byte word at off (handling a short tail).
func oracleWordsEqual(a, b []byte, off int) bool {
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

func oracleCompute(cur, twin []byte) Diff {
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
		if oracleWordsEqual(cur, twin, off) {
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

func oracleStampChanged(stamps []object.WordStamp, cur, twin []byte, st object.WordStamp) int {
	n := 0
	for off := 0; off < len(cur); off += object.WordSize {
		if !oracleWordsEqual(cur, twin, off) {
			stamps[off/object.WordSize] = st
			n++
		}
	}
	return n
}

func oracleFilterByStamp(cur []byte, stamps []object.WordStamp, include func(object.WordStamp) bool) Diff {
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

func oracleComputeStamped(cur, twin []byte, stamps []object.WordStamp, epoch uint32) StampedDiff {
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
		if oracleWordsEqual(cur, twin, off) {
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

func oracleApplyStamped(dst []byte, stamps []object.WordStamp, d StampedDiff, epoch uint32) (int, error) {
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
