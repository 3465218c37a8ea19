// Package object defines shared-object identity and per-object control
// information for the LOTS runtime.
//
// In LOTS, declaring a shared object generates a unique,
// known-to-all-machines object ID, which is the key to all internal data
// structures for the object (§3.2). Only this control information is
// resident in each process's address space; the object data itself is
// mapped lazily by the dynamic memory mapper. The paper's Pointer class
// holds nothing but the object ID — the same size as a machine pointer —
// so pointer arithmetic remains possible (§3.3).
package object

import (
	"fmt"
	"sync"
)

// ID identifies a shared object cluster-wide. IDs are generated
// deterministically: allocation statements execute SPMD on every node in
// the same order, so node-local counters agree without communication.
type ID uint64

// NilID is the zero, never-allocated object ID.
const NilID ID = 0

// WordSize is the stamping granularity: LOTS associates lock and
// timestamp information with each field of a shared object (§3.5); this
// reproduction stamps every 4-byte word.
const WordSize = 4

// CopyState describes the validity of this node's copy of an object.
type CopyState uint8

const (
	// Initial: allocated, never written or synchronized anywhere. All
	// nodes hold identical (zero) contents.
	Initial CopyState = iota
	// Clean: a valid copy consistent with the object's last
	// synchronization point.
	Clean
	// Dirty: modified locally since the last synchronization point; a
	// twin exists for diffing.
	Dirty
	// Invalid: the local copy is stale (write-invalidate at a barrier,
	// §3.4) and must be re-fetched from the home before use.
	Invalid
)

func (s CopyState) String() string {
	switch s {
	case Initial:
		return "initial"
	case Clean:
		return "clean"
	case Dirty:
		return "dirty"
	case Invalid:
		return "invalid"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// WordStamp records, for one 4-byte word, the synchronization event that
// last wrote it: the version counter of the guarding lock and the lock's
// ID (both 0 for a write under no lock). Storing the last-updated time
// for each field of the object is what lets LOTS compute diffs on demand
// and eliminate the diff accumulation problem (§3.5, Figure 7b).
type WordStamp struct {
	Ver  uint32
	Lock uint16
	// Epoch is the barrier interval in which the write happened. Lock
	// versions are only comparable within one epoch: barriers reconcile
	// everything, so stamps from earlier epochs are treated as blank.
	Epoch uint32
}

// Control is the per-node control information for one shared object —
// the only part of an object that is always resident (§3.1). Everything
// else (the data, the twin) lives in the DMM/twin areas or on disk.
//
// Control is not self-synchronizing: the runtime serializes access per
// node (application goroutine vs. message-service goroutine) with the
// node's big lock, mirroring the single-threaded-plus-SIGIO structure of
// the original.
type Control struct {
	ID   ID
	Size int // bytes of object data
	Elem int // element size (for arrays); Size % Elem == 0

	// Home is this node's view of the object's current home (master
	// copy holder) under the migrating-home protocol (§3.4).
	Home int

	State CopyState

	// Mapped/Offset locate the data in the DMM arena when mapped.
	Mapped bool
	Offset int

	// Heap holds the data when the large-object-space support is
	// disabled (the LOTS-x configuration of §4.1): objects then live
	// permanently in process memory, exactly like conventional DSMs.
	Heap []byte

	// DiskValid reports that the backing store holds a byte-exact copy
	// of the current local data, so eviction can skip the write-back.
	DiskValid bool

	// LastAccess is the pinning timestamp: a logical tick recording the
	// object's latest access. Objects with more recent timestamps are
	// less likely to be swapped out (§3.3).
	LastAccess uint64

	// MapSeq is the tick at which the object was last mapped in (used
	// by the FIFO eviction ablation).
	MapSeq uint64

	// Pins is a hard reference count; a pinned object is never evicted
	// (the statement-scope pinning mechanism of §3.3).
	Pins int

	// RWViews counts this node's open read-write views on the object.
	// While non-zero the span is mid-mutation: the node defers serving
	// object fetches (and grant-diff reads) for it so peers never
	// receive a torn copy.
	RWViews int

	// ROViews counts open read-only views. Protocol paths that WRITE
	// the object's bytes on a service goroutine (home-based lock-scope
	// flushes) defer while either count is non-zero, so a lock-free
	// reader never observes a torn update.
	ROViews int

	// Twin is the pre-modification copy used for diff computation
	// (§3.2 "twin area"); nil when no twin exists.
	Twin []byte

	// Stamps holds one WordStamp per 4-byte word, lazily allocated at
	// first write. This is the control-area per-field timestamp
	// information of §3.5.
	Stamps []WordStamp

	// WrittenInEpoch marks that this node wrote the object since the
	// last barrier (used to build barrier write notices).
	WrittenInEpoch bool

	// ReconcileNS is the simulated time (ns) of the last barrier diff
	// applied to this copy at its home; fetch services cannot serve
	// data from before it.
	ReconcileNS int64

	// Ver is the data version this node's copy corresponds to. The
	// home bumps it whenever a synchronization event actually mutates
	// the object's bytes (a non-trivial barrier diff, a home-based
	// lock flush, a lock grant diff, or the home's own epoch writes);
	// cachers record the version carried by their last fetch. A leased
	// copy whose version still matches the home's at barrier time is
	// byte-identical to the home's and may stay valid without a
	// re-fetch.
	Ver uint32

	// Lease marks that this node holds a read lease on its copy,
	// granted by the home with the last fetch reply. The lease is
	// forfeited the moment the copy stops being a pure fetched image:
	// a local write (element Set or RW view), an applied lock-scope
	// diff, or an invalidation all clear it.
	Lease bool
}

// Words returns the number of stamp words covering the object.
func (c *Control) Words() int { return (c.Size + WordSize - 1) / WordSize }

// EnsureStamps allocates the per-word stamp array on first use.
func (c *Control) EnsureStamps() []WordStamp {
	if c.Stamps == nil {
		c.Stamps = make([]WordStamp, c.Words())
	}
	return c.Stamps
}

// Table maps object IDs to control blocks for one node. Lookup is the
// heart of the LOTS access check: "in most cases ... the checking
// routine is just a table lookup, converting the object ID to the
// address pointer to be returned" (§3.3).
type Table struct {
	mu   sync.RWMutex
	m    map[ID]*Control
	next uint64
}

// NewTable returns an empty object table.
func NewTable() *Table {
	return &Table{m: make(map[ID]*Control)}
}

// Declare reserves the next deterministic object ID. Physical memory is
// not allocated at declaration time (§3.2).
func (t *Table) Declare() ID {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return ID(t.next)
}

// Register installs a control block for an allocated object.
func (t *Table) Register(c *Control) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c.ID == NilID {
		return fmt.Errorf("object: register with nil ID")
	}
	if _, dup := t.m[c.ID]; dup {
		return fmt.Errorf("object: duplicate registration of %d", c.ID)
	}
	t.m[c.ID] = c
	return nil
}

// Lookup returns the control block for id, or nil.
func (t *Table) Lookup(id ID) *Control {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.m[id]
}

// Len returns the number of registered objects.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.m)
}

// ForEach calls f for every registered control block. Iteration order
// is unspecified. f must not call back into the table.
func (t *Table) ForEach(f func(*Control)) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, c := range t.m {
		f(c)
	}
}

// IDs returns all registered IDs (unordered).
func (t *Table) IDs() []ID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]ID, 0, len(t.m))
	for id := range t.m {
		out = append(out, id)
	}
	return out
}
