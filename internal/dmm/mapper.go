package dmm

import (
	"errors"
	"fmt"

	"repro/internal/disk"
	"repro/internal/object"
	"repro/internal/stats"
)

// Mapper is the dynamic memory mapper (§3.3): it maps shared object
// data lazily into the DMM arena on access, spilling the least recently
// used unpinned objects to the backing store when the arena is full.
// The combination of best-fit placement and LRU-with-pinning eviction
// is exactly the paper's swapping strategy.
type Mapper struct {
	arena []byte
	alloc *Allocator
	store disk.Store
	ctr   *stats.Counters

	mapped map[object.ID]*object.Control
	tick   uint64
	fifo   bool // eviction ablation: FIFO instead of LRU+pinning
}

// ErrArenaExhausted is returned when an object cannot be mapped because
// every mapped object is pinned (§5 notes this can occur when very
// large objects are all referenced by one statement).
var ErrArenaExhausted = errors.New("dmm: DMM area exhausted; all mapped objects pinned")

// ErrTooLarge is returned when a single object exceeds the DMM area —
// the paper's 512 MB single-object bound (§4.3).
var ErrTooLarge = errors.New("dmm: object larger than the DMM area")

// NewMapper builds a mapper over an arena of arenaSize bytes backed by
// store. ctr may be nil.
func NewMapper(arenaSize int, store disk.Store, ctr *stats.Counters) *Mapper {
	return &Mapper{
		arena:  make([]byte, arenaSize),
		alloc:  NewAllocator(arenaSize),
		store:  store,
		ctr:    ctr,
		mapped: make(map[object.ID]*object.Control),
	}
}

// ArenaSize returns the DMM area capacity.
func (m *Mapper) ArenaSize() int { return len(m.arena) }

// MappedCount returns how many objects are currently mapped.
func (m *Mapper) MappedCount() int { return len(m.mapped) }

// MappedBytes returns the allocator's used byte count.
func (m *Mapper) MappedBytes() int { return m.alloc.Used() }

// Data returns the arena slice holding c's data. c must be mapped.
func (m *Mapper) Data(c *object.Control) []byte {
	if !c.Mapped {
		panic(fmt.Sprintf("dmm: Data on unmapped object %d", c.ID))
	}
	return m.arena[c.Offset : c.Offset+c.Size]
}

// Touch records an access for the LRU/pinning timestamp (§3.3: a
// timestamp on each object recording its latest access).
func (m *Mapper) Touch(c *object.Control) {
	m.tick++
	c.LastAccess = m.tick
}

// Pin hard-pins c against eviction; every Pin needs a matching Unpin.
// This implements the statement-scope pinning mechanism: all objects
// referenced in a single statement stay resident until it completes.
func (m *Mapper) Pin(c *object.Control) { c.Pins++ }

// Unpin releases one pin.
func (m *Mapper) Unpin(c *object.Control) {
	if c.Pins <= 0 {
		panic(fmt.Sprintf("dmm: unbalanced Unpin on object %d", c.ID))
	}
	c.Pins--
}

// MarkDirty notes that c's mapped bytes diverge from any disk copy, so
// eviction must write back.
func (m *Mapper) MarkDirty(c *object.Control) { c.DiskValid = false }

// Ensure maps c into the DMM area if necessary and returns its data
// slice. On first mapping the data is zero (shared state "initial");
// if a spilled copy exists it is read back from the local disk (§3.1
// step: "if the object data is not mapped to the local virtual memory,
// it will be brought in from the local disk").
func (m *Mapper) Ensure(c *object.Control) ([]byte, error) {
	if c.Mapped {
		m.Touch(c)
		return m.Data(c), nil
	}
	if c.Size > len(m.arena) {
		return nil, fmt.Errorf("%w: object %d is %d bytes, DMM area %d",
			ErrTooLarge, c.ID, c.Size, len(m.arena))
	}
	off, err := m.allocEvicting(c.Size)
	if err != nil {
		return nil, err
	}
	c.Mapped = true
	c.Offset = off
	data := m.Data(c)
	if m.store != nil && m.store.Has(uint64(c.ID)) {
		if err := m.store.Read(uint64(c.ID), data); err != nil {
			c.Mapped = false
			m.alloc.Free(off, c.Size) //nolint:errcheck // restoring pre-failure state
			return nil, fmt.Errorf("dmm: map-in of object %d: %w", c.ID, err)
		}
		c.DiskValid = true
	} else {
		for i := range data {
			data[i] = 0
		}
		c.DiskValid = false
	}
	m.mapped[c.ID] = c
	m.tick++
	c.LastAccess = m.tick
	c.MapSeq = m.tick
	if m.ctr != nil {
		m.ctr.MapIns.Add(1)
	}
	return data, nil
}

// allocEvicting allocates size bytes, evicting LRU unpinned objects
// until the allocation succeeds.
func (m *Mapper) allocEvicting(size int) (int, error) {
	for {
		if off, ok := m.alloc.Alloc(size); ok {
			return off, nil
		}
		if err := m.evictOne(); err != nil {
			return 0, err
		}
	}
}

// SetEvictPolicy switches between LRU-with-pinning (the paper's §3.3
// policy, default) and plain FIFO (the eviction ablation).
func (m *Mapper) SetEvictPolicy(fifo bool) { m.fifo = fifo }

// evictOne swaps out the least-recently-used (or, under the FIFO
// ablation, oldest-mapped) unpinned object.
func (m *Mapper) evictOne() error {
	var victim *object.Control
	key := func(c *object.Control) uint64 {
		if m.fifo {
			return c.MapSeq
		}
		return c.LastAccess
	}
	for _, c := range m.mapped {
		if c.Pins > 0 {
			if m.ctr != nil {
				m.ctr.PinDenls.Add(1)
			}
			continue
		}
		if victim == nil || key(c) < key(victim) {
			victim = c
		}
	}
	if victim == nil {
		return ErrArenaExhausted
	}
	return m.Evict(victim)
}

// Evict spills c to the backing store (unless the disk copy is already
// valid) and unmaps it.
func (m *Mapper) Evict(c *object.Control) error {
	if !c.Mapped {
		return nil
	}
	if c.Pins > 0 {
		return fmt.Errorf("dmm: evicting pinned object %d", c.ID)
	}
	if m.store == nil {
		return fmt.Errorf("dmm: no backing store; cannot evict object %d", c.ID)
	}
	if !c.DiskValid {
		if err := m.store.Write(uint64(c.ID), m.Data(c)); err != nil {
			return fmt.Errorf("dmm: swap-out of object %d: %w", c.ID, err)
		}
		c.DiskValid = true
	}
	m.unmap(c)
	if m.ctr != nil {
		m.ctr.SwapOuts.Add(1)
	}
	return nil
}

// Drop unmaps c without writing it back (used when the copy has been
// invalidated by the write-invalidate barrier protocol, §3.4: processes
// "invalidate their own copies of the non-home objects, and free the
// memory storing the updates"). A pinned object — one with an open
// view — keeps its mapping so the view's bytes stay valid; only the
// stale spill is discarded, and the next coherence fetch overwrites the
// still-mapped arena bytes in place.
func (m *Mapper) Drop(c *object.Control) {
	if !c.Mapped {
		return
	}
	if c.Pins == 0 {
		m.unmap(c)
	}
	if m.store != nil {
		m.store.Delete(uint64(c.ID)) //nolint:errcheck // spill removal is advisory
	}
	c.DiskValid = false
}

func (m *Mapper) unmap(c *object.Control) {
	if err := m.alloc.Free(c.Offset, c.Size); err != nil {
		panic(fmt.Sprintf("dmm: corrupt free of object %d: %v", c.ID, err))
	}
	c.Mapped = false
	c.Offset = 0
	delete(m.mapped, c.ID)
}

// Store exposes the backing store (for capacity queries).
func (m *Mapper) Store() disk.Store { return m.store }

// SetStore replaces the backing store (used when enabling remote-disk
// swap overflow); existing spills must remain readable through the new
// store.
func (m *Mapper) SetStore(s disk.Store) { m.store = s }
