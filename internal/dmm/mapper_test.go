package dmm

import (
	"errors"
	"testing"

	"repro/internal/disk"
	"repro/internal/object"
	"repro/internal/stats"
)

func newTestMapper(arena int) (*Mapper, *stats.Counters) {
	ctr := &stats.Counters{}
	return NewMapper(arena, disk.NewSimStore(0), ctr), ctr
}

func ctl(id object.ID, size int) *object.Control {
	return &object.Control{ID: id, Size: size, Elem: 4}
}

func TestEnsureMapsZeroedData(t *testing.T) {
	m, ctr := newTestMapper(1 << 16)
	c := ctl(1, 4096)
	data, err := m.Ensure(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 4096 {
		t.Fatalf("len = %d", len(data))
	}
	for i, b := range data {
		if b != 0 {
			t.Fatalf("byte %d = %d, want 0 (initial state)", i, b)
		}
	}
	if !c.Mapped || ctr.MapIns.Load() != 1 {
		t.Error("mapping bookkeeping wrong")
	}
	// Second Ensure is a cheap touch, not a second map-in.
	if _, err := m.Ensure(c); err != nil {
		t.Fatal(err)
	}
	if ctr.MapIns.Load() != 1 {
		t.Error("re-Ensure should not remap")
	}
}

func TestEvictionSpillsAndRestores(t *testing.T) {
	m, ctr := newTestMapper(8 << 10) // room for ~1 object + slack
	a, b := ctl(1, 5000), ctl(2, 5000)

	da, err := m.Ensure(a)
	if err != nil {
		t.Fatal(err)
	}
	da[0], da[4999] = 0xAB, 0xCD
	m.MarkDirty(a)

	// Mapping b forces a out (LRU), spilling its dirty bytes.
	if _, err := m.Ensure(b); err != nil {
		t.Fatal(err)
	}
	if a.Mapped {
		t.Fatal("a should have been evicted")
	}
	if ctr.SwapOuts.Load() != 1 {
		t.Errorf("SwapOuts = %d", ctr.SwapOuts.Load())
	}
	if !m.Store().Has(uint64(a.ID)) {
		t.Fatal("a not spilled to disk")
	}

	// Touching a again brings it back from disk with data intact.
	da, err = m.Ensure(a)
	if err != nil {
		t.Fatal(err)
	}
	if da[0] != 0xAB || da[4999] != 0xCD {
		t.Error("spilled data lost on map-in")
	}
	if !b.Mapped == false && ctr.SwapOuts.Load() != 2 {
		t.Error("b should have been evicted for a's return")
	}
}

func TestLRUVictimSelection(t *testing.T) {
	m, _ := newTestMapper(20 << 10)
	a, b, c := ctl(1, 6000), ctl(2, 6000), ctl(3, 6000)
	for _, o := range []*object.Control{a, b, c} {
		if _, err := m.Ensure(o); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a and c so b is the LRU victim.
	m.Touch(a)
	m.Touch(c)
	d := ctl(4, 6000)
	if _, err := m.Ensure(d); err != nil {
		t.Fatal(err)
	}
	if !a.Mapped || b.Mapped || !c.Mapped || !d.Mapped {
		t.Errorf("mapped: a=%v b=%v c=%v d=%v; want b evicted",
			a.Mapped, b.Mapped, c.Mapped, d.Mapped)
	}
}

func TestPinningPreventsEviction(t *testing.T) {
	// §3.3: all objects referenced in a single statement must stay in
	// the DMM area until the statement completes.
	m, ctr := newTestMapper(16 << 10)
	a, b := ctl(1, 6000), ctl(2, 6000)
	m.Ensure(a)
	m.Pin(a)
	m.Ensure(b)
	m.Pin(b)

	// a is the LRU, but pinned; c's mapping must fail outright since b
	// is pinned too and nothing else can move.
	c := ctl(3, 6000)
	if _, err := m.Ensure(c); !errors.Is(err, ErrArenaExhausted) {
		t.Fatalf("err = %v, want ErrArenaExhausted", err)
	}
	if ctr.PinDenls.Load() == 0 {
		t.Error("pin denials not counted")
	}
	// Unpinning a lets the eviction proceed.
	m.Unpin(a)
	if _, err := m.Ensure(c); err != nil {
		t.Fatalf("after unpin: %v", err)
	}
	if a.Mapped {
		t.Error("a should be the victim after unpin")
	}
	m.Unpin(b)
}

func TestUnpinUnderflowPanics(t *testing.T) {
	m, _ := newTestMapper(1 << 12)
	c := ctl(1, 64)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on unbalanced Unpin")
		}
	}()
	m.Unpin(c)
}

func TestObjectLargerThanArena(t *testing.T) {
	m, _ := newTestMapper(4 << 10)
	c := ctl(1, 8<<10)
	if _, err := m.Ensure(c); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestCleanEvictionSkipsWriteBack(t *testing.T) {
	store := disk.NewSimStore(0)
	ctr := &stats.Counters{}
	m := NewMapper(8<<10, store, ctr)
	a := ctl(1, 5000)
	da, _ := m.Ensure(a)
	da[0] = 1
	m.MarkDirty(a)
	b := ctl(2, 5000)
	m.Ensure(b) // evicts a, writes 5000 bytes
	m.Ensure(a) // evicts b (clean, but never spilled -> must write), restores a

	// Now a is mapped and DiskValid (just read back). Evicting it again
	// without modification must not rewrite.
	writes := ctr.SwapOuts.Load()
	preWrite := store.Used()
	if err := m.Evict(a); err != nil {
		t.Fatal(err)
	}
	if ctr.SwapOuts.Load() != writes+1 {
		t.Error("eviction not counted")
	}
	if store.Used() != preWrite {
		t.Error("clean eviction should not grow the store")
	}
}

func TestDropDiscardsWithoutSpill(t *testing.T) {
	m, _ := newTestMapper(1 << 16)
	c := ctl(1, 4096)
	data, _ := m.Ensure(c)
	data[0] = 0xEE
	m.MarkDirty(c)
	m.Drop(c)
	if c.Mapped {
		t.Error("still mapped after Drop")
	}
	if m.Store().Has(uint64(c.ID)) {
		t.Error("Drop must not spill (write-invalidate frees the memory)")
	}
	// Re-mapping yields zeroed data again.
	data, _ = m.Ensure(c)
	if data[0] != 0 {
		t.Error("dropped data resurrected")
	}
}

// TestDropKeepsPinnedMapping: invalidating an object with an open view
// (pinned) must not unmap it — the view's bytes stay valid and only the
// stale spill is discarded; the next fetch overwrites in place.
func TestDropKeepsPinnedMapping(t *testing.T) {
	m, _ := newTestMapper(1 << 16)
	c := ctl(1, 4096)
	data, err := m.Ensure(c)
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 0xAB
	if err := m.Evict(c); err != nil { // spill a copy
		t.Fatal(err)
	}
	if _, err := m.Ensure(c); err != nil { // remap from spill
		t.Fatal(err)
	}
	m.Pin(c)
	m.Drop(c)
	if !c.Mapped {
		t.Fatal("Drop unmapped a pinned object")
	}
	if c.DiskValid {
		t.Error("Drop must invalidate the spill even while pinned")
	}
	if got := m.Data(c)[0]; got != 0xAB {
		t.Errorf("pinned bytes changed under Drop: %#x", got)
	}
	m.Unpin(c)
	m.Drop(c) // unpinned: now the mapping goes
	if c.Mapped {
		t.Error("Drop left an unpinned object mapped")
	}
}

func TestEvictPinnedFails(t *testing.T) {
	m, _ := newTestMapper(1 << 16)
	c := ctl(1, 4096)
	m.Ensure(c)
	m.Pin(c)
	if err := m.Evict(c); err == nil {
		t.Error("evicting a pinned object should fail")
	}
	m.Unpin(c)
	if err := m.Evict(c); err != nil {
		t.Error(err)
	}
}

func TestManyObjectsChurnThroughSmallArena(t *testing.T) {
	// Object space >> DMM area: the defining scenario of the paper.
	// 64 objects x 4 KB = 256 KB of shared objects through a 16 KB arena.
	m, ctr := newTestMapper(16 << 10)
	objs := make([]*object.Control, 64)
	for i := range objs {
		objs[i] = ctl(object.ID(i+1), 4096)
	}
	// Write a distinct pattern into each object.
	for i, c := range objs {
		data, err := m.Ensure(c)
		if err != nil {
			t.Fatal(err)
		}
		for j := range data {
			data[j] = byte(i)
		}
		m.MarkDirty(c)
	}
	// Read them all back; every byte must have survived the churn.
	for i, c := range objs {
		data, err := m.Ensure(c)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < len(data); j += 997 {
			if data[j] != byte(i) {
				t.Fatalf("object %d byte %d = %d, want %d", i, j, data[j], byte(i))
			}
		}
	}
	if ctr.SwapOuts.Load() == 0 || ctr.MapIns.Load() < 64 {
		t.Errorf("expected heavy swapping: swaps=%d mapins=%d",
			ctr.SwapOuts.Load(), ctr.MapIns.Load())
	}
	if m.MappedBytes() > m.ArenaSize() {
		t.Error("arena overcommitted")
	}
}

func TestDataPanicsOnUnmapped(t *testing.T) {
	m, _ := newTestMapper(1 << 12)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.Data(ctl(1, 64))
}

func TestMappedAccounting(t *testing.T) {
	m, _ := newTestMapper(1 << 16)
	if m.MappedCount() != 0 {
		t.Error("fresh mapper has mappings")
	}
	c := ctl(1, 100)
	m.Ensure(c)
	if m.MappedCount() != 1 || m.MappedBytes() == 0 {
		t.Error("accounting after Ensure")
	}
	m.Evict(c)
	if m.MappedCount() != 0 {
		t.Error("accounting after Evict")
	}
}

// A map-in over a FileStore reads the swap-file extent straight into
// the arena slot: no buffer in between, so nothing to allocate.
func TestMapInOverFileStoreDoesNotAllocate(t *testing.T) {
	fs, err := disk.NewFileStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	m := NewMapper(8<<10, fs, nil) // room for one of the two objects
	objs := []*object.Control{ctl(1, 5000), ctl(2, 5000)}
	for i, c := range objs {
		data, err := m.Ensure(c)
		if err != nil {
			t.Fatal(err)
		}
		data[0], data[4999] = byte(i+1), 0xEE
		m.MarkDirty(c)
	}
	turn := 0
	allocs := testing.AllocsPerRun(50, func() {
		c := objs[turn%2] // the one Ensure of the other just evicted
		turn++
		data, err := m.Ensure(c)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != byte(c.ID) || data[4999] != 0xEE {
			t.Fatalf("object %d mapped in as %#x..%#x", c.ID, data[0], data[4999])
		}
	})
	if allocs != 0 {
		t.Errorf("evicting map-in allocates %v times, want 0", allocs)
	}
}
