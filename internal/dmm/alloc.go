// Package dmm implements the dynamic memory mapping area of LOTS: the
// memory allocator (§3.2) and the dynamic memory mapper (§3.3).
//
// LOTS partitions the process space and manages a fixed-size DMM area
// into which shared object data is mapped lazily during access. The
// allocator is an approximation of best-fit built on 1024 queues of
// used/free blocks (Figure 4), with a placement policy that assigns
// small objects to the upper half of the area, medium objects in
// decreasing addresses, and large objects in increasing addresses, and
// that packs small objects of the same size into the same page to
// exploit spatial locality (e.g. linked-list traversals).
package dmm

import (
	"fmt"
	"math/bits"
	"sort"
)

// NumQueues is the number of size-class queues (Figure 4).
const NumQueues = 1024

// PageSize is the packing unit for small objects.
const PageSize = 4096

// SmallMax is the largest object handled by the slab (same-page packing)
// path; MediumMax separates medium from large placement.
const (
	SmallMax  = 2048
	MediumMax = 64 << 10
)

// align rounds size up to the 8-byte allocation granule.
func align(size int) int {
	if size <= 0 {
		return 8
	}
	return (size + 7) &^ 7
}

// classOf maps a block size to its queue index. Sizes up to 4096 map
// linearly in steps of 8 (classes 0..511); larger sizes map
// geometrically, 16 sub-buckets per doubling (classes 512..1023).
// classOf is monotonically non-decreasing in size.
func classOf(size int) int {
	if size <= 0 {
		return 0
	}
	if size <= 4096 {
		return (size - 1) / 8
	}
	// k >= 1: size in (4096*2^(k-1), 4096*2^k].
	k := bits.Len(uint(size-1)) - 12
	lo := 4096 << (k - 1)
	sub := (size - lo - 1) * 16 / lo
	c := 512 + (k-1)*16 + sub
	if c > NumQueues-1 {
		c = NumQueues - 1
	}
	return c
}

// block is a contiguous region of the arena.
type block struct {
	off, size int
}

// Allocator manages free space inside the DMM area.
type Allocator struct {
	size int

	// Free blocks indexed three ways: per size-class queue for best-fit
	// search, and by boundary offsets for O(1) coalescing on free.
	queues  [NumQueues]map[int]int // class -> {off: size}
	byStart map[int]int            // off -> size
	byEnd   map[int]int            // off+size -> off

	used int

	// Slab state for small-object same-page packing.
	slabs    map[int]*slabClass // rounded size -> class
	slotPage map[int]int        // slot offset -> page offset
	pageOf   map[int]*slabPage  // page offset -> page
}

type slabClass struct {
	slot    int   // slot size
	partial []int // page offsets with free slots
}

type slabPage struct {
	off   int
	slot  int
	inUse int
	free  []int // free slot offsets within the page
}

// NewAllocator manages an arena of the given byte size.
func NewAllocator(size int) *Allocator {
	a := &Allocator{
		size:     size,
		byStart:  make(map[int]int),
		byEnd:    make(map[int]int),
		slabs:    make(map[int]*slabClass),
		slotPage: make(map[int]int),
		pageOf:   make(map[int]*slabPage),
	}
	for i := range a.queues {
		a.queues[i] = make(map[int]int)
	}
	if size > 0 {
		a.insertFree(0, size)
	}
	return a
}

// Size returns the arena capacity.
func (a *Allocator) Size() int { return a.size }

// Used returns bytes currently allocated (including slab page padding).
func (a *Allocator) Used() int { return a.used }

func (a *Allocator) insertFree(off, size int) {
	// Coalesce with successor.
	if nsz, ok := a.byStart[off+size]; ok {
		a.removeFree(off+size, nsz)
		size += nsz
	}
	// Coalesce with predecessor.
	if poff, ok := a.byEnd[off]; ok {
		psz := a.byStart[poff]
		a.removeFree(poff, psz)
		off = poff
		size += psz
	}
	a.byStart[off] = size
	a.byEnd[off+size] = off
	a.queues[classOf(size)][off] = size
}

func (a *Allocator) removeFree(off, size int) {
	delete(a.byStart, off)
	delete(a.byEnd, off+size)
	delete(a.queues[classOf(size)], off)
}

// placement selects how a request is positioned inside its free block.
type placement int

const (
	placeLow  placement = iota // large objects: increasing addresses
	placeHigh                  // small pages & medium: decreasing addresses
)

// findBest locates the best-fit free block for size: the smallest block
// that fits, searching queues upward from the request's class. Ties are
// broken toward high offsets for placeHigh and low offsets for placeLow,
// reproducing the paper's split of the DMM area.
func (a *Allocator) findBest(size int, pl placement) (off, bsz int, ok bool) {
	for c := classOf(size); c < NumQueues; c++ {
		bestOff, bestSize := -1, -1
		for o, s := range a.queues[c] {
			if s < size {
				continue
			}
			if bestSize == -1 || s < bestSize ||
				(s == bestSize && ((pl == placeHigh && o > bestOff) || (pl == placeLow && o < bestOff))) {
				bestOff, bestSize = o, s
			}
		}
		if bestSize != -1 {
			return bestOff, bestSize, true
		}
	}
	return 0, 0, false
}

// carve allocates size bytes from the free block (off,bsz) at the end
// selected by pl and returns the allocation offset.
func (a *Allocator) carve(off, bsz, size int, pl placement) int {
	a.removeFree(off, bsz)
	var allocOff int
	if pl == placeLow {
		allocOff = off
		if rest := bsz - size; rest > 0 {
			a.insertFree(off+size, rest)
		}
	} else {
		allocOff = off + bsz - size
		if rest := bsz - size; rest > 0 {
			a.insertFree(off, rest)
		}
	}
	a.used += size
	return allocOff
}

// Alloc reserves size bytes and returns the arena offset. Small
// requests go through the slab path (same-page packing); medium
// requests are placed high and large requests low, per §3.2.
func (a *Allocator) Alloc(size int) (int, bool) {
	size = align(size)
	if size <= SmallMax {
		return a.allocSmall(size)
	}
	pl := placeHigh
	if size > MediumMax {
		pl = placeLow
	}
	off, bsz, ok := a.findBest(size, pl)
	if !ok {
		return 0, false
	}
	return a.carve(off, bsz, size, pl), true
}

func (a *Allocator) allocSmall(size int) (int, bool) {
	sc := a.slabs[size]
	if sc == nil {
		sc = &slabClass{slot: size}
		a.slabs[size] = sc
	}
	if len(sc.partial) == 0 {
		// Open a new page placed toward high addresses (the upper half).
		off, bsz, ok := a.findBest(PageSize, placeHigh)
		if !ok {
			return 0, false
		}
		p := &slabPage{off: a.carve(off, bsz, PageSize, placeHigh), slot: size}
		for s := p.off + PageSize - size; s >= p.off; s -= size {
			p.free = append(p.free, s)
		}
		a.pageOf[p.off] = p
		sc.partial = append(sc.partial, p.off)
	}
	// Objects of the same size land in the same page (§3.2): take a
	// slot of the class's newest partial page. A page that fills leaves
	// the list here and freeSmall lists it again, so a page is listed at
	// most once and a listed page is always this class's own — an entry
	// outliving its page would hand out another class's slots once the
	// region is recarved.
	last := len(sc.partial) - 1
	p := a.pageOf[sc.partial[last]]
	slot := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.inUse++
	a.slotPage[slot] = p.off
	if len(p.free) == 0 {
		sc.partial = sc.partial[:last]
	}
	return slot, true
}

// Free releases an allocation made by Alloc with the same size.
func (a *Allocator) Free(off, size int) error {
	size = align(size)
	if size <= SmallMax {
		return a.freeSmall(off, size)
	}
	if off < 0 || off+size > a.size {
		return fmt.Errorf("dmm: free out of range [%d,%d)", off, off+size)
	}
	a.used -= size
	a.insertFree(off, size)
	return nil
}

func (a *Allocator) freeSmall(off, size int) error {
	pOff, ok := a.slotPage[off]
	if !ok {
		return fmt.Errorf("dmm: free of unknown small slot %d", off)
	}
	p := a.pageOf[pOff]
	if p == nil || p.slot != size {
		return fmt.Errorf("dmm: small free size mismatch at %d (page slot %d, freeing %d)", off, p.slot, size)
	}
	delete(a.slotPage, off)
	p.free = append(p.free, off)
	p.inUse--
	sc := a.slabs[size]
	if p.inUse == 0 {
		// Whole page empty: return it to the general pool.
		delete(a.pageOf, pOff)
		for i, po := range sc.partial {
			if po == pOff {
				sc.partial = append(sc.partial[:i], sc.partial[i+1:]...)
				break
			}
		}
		a.used -= PageSize
		a.insertFree(pOff, PageSize)
		return nil
	}
	if len(p.free) == 1 {
		// A full page just became partial again.
		sc.partial = append(sc.partial, pOff)
	}
	return nil
}

// LargestFree returns the size of the largest contiguous free block —
// the bound on the next mappable object.
func (a *Allocator) LargestFree() int {
	max := 0
	for c := NumQueues - 1; c >= 0; c-- {
		for _, s := range a.queues[c] {
			if s > max {
				max = s
			}
		}
		if max > 0 && c < classOf(max) {
			break
		}
	}
	return max
}

// FreeBlocks returns the free list sorted by offset (for tests and
// debugging).
func (a *Allocator) FreeBlocks() []struct{ Off, Size int } {
	out := make([]struct{ Off, Size int }, 0, len(a.byStart))
	for off, size := range a.byStart {
		out = append(out, struct{ Off, Size int }{off, size})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Off < out[j].Off })
	return out
}

// SamePage reports whether two allocation offsets fall in the same
// packing page (used to verify the spatial-locality policy).
func SamePage(a, b int) bool { return a/PageSize == b/PageSize }
