package disk

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/platform"
	"repro/internal/stats"
)

// storeTest exercises the common Store contract.
func storeTest(t *testing.T, s Store) {
	t.Helper()
	data := []byte("the quick brown fox")
	if s.Has(1) {
		t.Error("Has(1) before write")
	}
	if err := s.Write(1, data); err != nil {
		t.Fatal(err)
	}
	if !s.Has(1) {
		t.Error("Has(1) after write")
	}
	if got := s.Used(); got != int64(len(data)) {
		t.Errorf("Used = %d, want %d", got, len(data))
	}
	dst := make([]byte, len(data))
	if err := s.Read(1, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, data) {
		t.Errorf("Read = %q", dst)
	}
	// Overwrite replaces, not appends.
	data2 := []byte("short")
	if err := s.Write(1, data2); err != nil {
		t.Fatal(err)
	}
	if got := s.Used(); got != int64(len(data2)) {
		t.Errorf("Used after overwrite = %d, want %d", got, len(data2))
	}
	// Wrong-size read is rejected.
	if err := s.Read(1, make([]byte, 100)); !errors.Is(err, ErrSizeMismatch) {
		t.Errorf("wrong-size read err = %v", err)
	}
	// Missing object.
	if err := s.Read(99, dst); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing read err = %v", err)
	}
	// Delete.
	if err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	if s.Has(1) || s.Used() != 0 {
		t.Error("object still present after delete")
	}
	if err := s.Delete(1); err != nil {
		t.Errorf("double delete should be a no-op: %v", err)
	}
}

func TestSimStoreContract(t *testing.T) { storeTest(t, NewSimStore(0)) }

func TestFileStoreContract(t *testing.T) {
	s, err := NewFileStore("", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	storeTest(t, s)
}

func TestAccountedContract(t *testing.T) {
	storeTest(t, NewAccounted(NewSimStore(0), platform.Test(), nil, nil))
}

func TestSimStoreCapacity(t *testing.T) {
	s := NewSimStore(100)
	if err := s.Write(1, make([]byte, 60)); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(2, make([]byte, 60)); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("over-capacity write err = %v, want ErrNoSpace", err)
	}
	// Failed write must not corrupt accounting.
	if got := s.Used(); got != 60 {
		t.Errorf("Used after failed write = %d, want 60", got)
	}
	// Shrinking an existing object frees space.
	if err := s.Write(1, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(2, make([]byte, 60)); err != nil {
		t.Errorf("write should fit after shrink: %v", err)
	}
}

func TestFileStoreCapacity(t *testing.T) {
	s, err := NewFileStore(t.TempDir(), 100)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Write(1, make([]byte, 60)); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(2, make([]byte, 60)); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("over-capacity write err = %v, want ErrNoSpace", err)
	}
	// Failed write must not corrupt accounting, and Has stays truthful.
	if got := s.Used(); got != 60 {
		t.Errorf("Used after failed write = %d, want 60", got)
	}
	if !s.Has(1) || s.Has(2) {
		t.Errorf("after failed write: Has(1) = %v, Has(2) = %v, want true, false", s.Has(1), s.Has(2))
	}
	// A refused grow leaves the old contents readable.
	if err := s.Write(1, make([]byte, 101)); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("over-capacity rewrite err = %v, want ErrNoSpace", err)
	}
	if err := s.Read(1, make([]byte, 60)); err != nil {
		t.Errorf("read after refused rewrite: %v", err)
	}
	// Shrinking an existing object frees space.
	if err := s.Write(1, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(2, make([]byte, 60)); err != nil {
		t.Errorf("write should fit after shrink: %v", err)
	}
}

// A write the file refuses must drop the object: the old code left its
// size recorded over a truncated file, so the store claimed an object
// its next Read could not return.
func TestFileStoreFailedWriteDropsObject(t *testing.T) {
	s, err := NewFileStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Write(1, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(2, []byte("torn")); err != nil {
		t.Fatal(err)
	}
	s.f.Close() // every later WriteAt fails
	if err := s.Write(2, []byte("TORN")); err == nil {
		t.Fatal("write to a closed file succeeded")
	}
	if s.Has(2) {
		t.Error("Has(2) after a failed rewrite: a torn extent could be read back")
	}
	if err := s.Read(2, make([]byte, 4)); !errors.Is(err, ErrNotFound) {
		t.Errorf("read of dropped object err = %v, want ErrNotFound", err)
	}
	if err := s.Write(3, []byte("new")); err == nil || s.Has(3) {
		t.Errorf("failed first write: err = %v, Has(3) = %v", err, s.Has(3))
	}
	if !s.Has(1) || s.Used() != 4 {
		t.Errorf("after failed writes: Has(1) = %v, Used = %d, want true, 4", s.Has(1), s.Used())
	}
}

// The capacity check and the accounting update are one critical
// section: concurrent writers (the application goroutine and remote
// swap-out service goroutines) must never be admitted together past the
// limit. Writers that got in hold their object for a moment, so the
// rest pile up on the one free slot and race for it when it opens.
func TestFileStoreConcurrentWritersRespectCapacity(t *testing.T) {
	const writers, rounds, size = 8, 300, 64
	s, err := NewFileStore(t.TempDir(), size)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var admitted atomic.Int64 // bytes of writes the store accepted and not yet deleted
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			buf := make([]byte, size)
			for r := 0; r < rounds; r++ {
				err := s.Write(id, buf)
				if errors.Is(err, ErrNoSpace) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				if a, used := admitted.Add(size), s.Used(); a > s.Capacity() || used > s.Capacity() {
					t.Errorf("admitted %d bytes, Used = %d, Capacity = %d", a, used, s.Capacity())
				}
				runtime.Gosched()
				admitted.Add(-size)
				if err := s.Delete(id); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	if got := s.Used(); got != 0 {
		t.Errorf("Used after every writer deleted = %d, want 0", got)
	}
}

func swapFileSize(t *testing.T, s *FileStore) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(s.Dir(), swapFileName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestFileStoreExtentReuse(t *testing.T) {
	const objs, size = 128, 512
	s, err := NewFileStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	buf, got := make([]byte, size), make([]byte, size)
	for round := 0; round < 100; round++ {
		for id := uint64(0); id < objs; id++ {
			buf[0], buf[size-1] = byte(round), byte(id)
			if err := s.Write(id, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := swapFileSize(t, s); n != objs*size {
		t.Fatalf("swap file is %d bytes after same-size rewrites, want %d extents = %d", n, objs, objs*size)
	}
	for id := uint64(0); id < objs; id++ {
		if err := s.Read(id, got); err != nil {
			t.Fatal(err)
		}
		if got[0] != 99 || got[size-1] != byte(id) {
			t.Fatalf("object %d reads back round %d, id %d", id, got[0], got[size-1])
		}
	}

	// Delete + Write of the same size lands in the freed extent.
	freed := s.extents[7]
	if err := s.Delete(7); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1000, buf); err != nil {
		t.Fatal(err)
	}
	if e := s.extents[1000]; e != freed {
		t.Errorf("write after delete took extent %+v, want the freed %+v", e, freed)
	}

	// Grow and shrink take a new extent, round-trip, and free the old one.
	for _, n := range []int{3 * size, size / 4} {
		old := s.extents[9]
		data := bytes.Repeat([]byte{byte(n)}, n)
		if err := s.Write(9, data); err != nil {
			t.Fatal(err)
		}
		back := make([]byte, n)
		if err := s.Read(9, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Errorf("resize to %d bytes does not round-trip", n)
		}
		if err := s.Write(2000+uint64(n), make([]byte, old.size)); err != nil {
			t.Fatal(err)
		}
		if e := s.extents[2000+uint64(n)]; e != old {
			t.Errorf("resize to %d: next %d-byte write took %+v, want the freed %+v", n, old.size, e, old)
		}
	}
	if want := int64(objs*size + 3*size + size/4); s.Used() != want {
		t.Errorf("Used = %d, want %d", s.Used(), want)
	}
}

func TestFileStoreShortReadIsAnError(t *testing.T) {
	s, err := NewFileStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data := bytes.Repeat([]byte{0xAB}, 4096)
	if err := s.Write(1, data); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int64{100, 0} {
		if err := os.Truncate(filepath.Join(s.Dir(), swapFileName), cut); err != nil {
			t.Fatal(err)
		}
		dst := bytes.Repeat([]byte{0xCD}, len(data))
		if err := s.Read(1, dst); err == nil {
			t.Errorf("read of an extent cut at %d succeeded (dst[200] = %#x)", cut, dst[200])
		}
	}
}

func TestFileStoreFailsAfterClose(t *testing.T) {
	s, err := NewFileStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, []byte("y")); !errors.Is(err, os.ErrClosed) {
		t.Errorf("Write after Close: err = %v, want os.ErrClosed", err)
	}
	if err := s.Read(1, make([]byte, 1)); err == nil {
		t.Error("Read after Close succeeded")
	}
	if err := s.Delete(1); err == nil {
		t.Error("Delete after Close succeeded")
	}
	if s.Has(1) || s.Used() != 0 {
		t.Errorf("after Close: Has = %v, Used = %d", s.Has(1), s.Used())
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestFileStoreReadWriteDoNotAllocate(t *testing.T) {
	s, err := NewFileStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	buf := make([]byte, 64<<10)
	if err := s.Write(1, buf); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := s.Write(1, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Write allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := s.Read(1, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Read allocates %v times per call, want 0", n)
	}
}

func TestFileStorePersistsRealFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(7, []byte("on disk")); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("spill dir has %d files, want 1", len(entries))
	}
	// Close on a non-owned dir must leave the files alone.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Errorf("non-owned dir removed by Close: %v", err)
	}
}

func TestFileStoreOwnedTempDirRemovedOnClose(t *testing.T) {
	s, err := NewFileStore("", 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := s.Dir()
	if err := s.Write(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("owned temp dir still exists after Close")
	}
}

func TestAccountedCountsAndCharges(t *testing.T) {
	var ctr stats.Counters
	var clk stats.SimClock
	prof := platform.PIII733RH62()
	s := NewAccounted(NewSimStore(0), prof, &ctr, &clk)
	data := make([]byte, 1<<20)
	if err := s.Write(5, data); err != nil {
		t.Fatal(err)
	}
	if ctr.DiskWrites.Load() != 1 || ctr.DiskWriteBytes.Load() != 1<<20 {
		t.Error("write counters wrong")
	}
	wTime := clk.Now()
	if wTime < 200*time.Millisecond {
		// 1 MB at 4.2 MB/s is ~250 ms on the RedHat 6.2 machine.
		t.Errorf("write charge = %v, want >= 200ms on slow disk", wTime)
	}
	if err := s.Read(5, data); err != nil {
		t.Fatal(err)
	}
	if ctr.DiskReads.Load() != 1 || ctr.DiskReadBytes.Load() != 1<<20 {
		t.Error("read counters wrong")
	}
	if clk.Now() <= wTime {
		t.Error("read did not advance clock")
	}
}

func TestAccountedDoesNotChargeFailedOps(t *testing.T) {
	var ctr stats.Counters
	var clk stats.SimClock
	s := NewAccounted(NewSimStore(10), platform.PIV2GFedora(), &ctr, &clk)
	if err := s.Write(1, make([]byte, 100)); !errors.Is(err, ErrNoSpace) {
		t.Fatal(err)
	}
	if ctr.DiskWrites.Load() != 0 || clk.Now() != 0 {
		t.Error("failed write was charged")
	}
}

func TestSimStoreCapacityExhaustionLikeTable1(t *testing.T) {
	// Fill the simulated Xeon disk (scaled down 2^20x) the way §4.3
	// exhausts its file servers; the max object space equals capacity.
	capBytes := platform.XeonSMP().DiskFreeBytes >> 20 // ~120 KB scaled
	s := NewSimStore(capBytes)
	obj := make([]byte, 4096)
	var id uint64
	for {
		if err := s.Write(id, obj); err != nil {
			if !errors.Is(err, ErrNoSpace) {
				t.Fatal(err)
			}
			break
		}
		id++
	}
	if got := s.Used(); capBytes-got >= 4096 {
		t.Errorf("exhausted at %d of %d: disk not fully utilized", got, capBytes)
	}
}

func TestSimStoreRoundTripProperty(t *testing.T) {
	s := NewSimStore(0)
	f := func(id uint64, data []byte) bool {
		if err := s.Write(id, data); err != nil {
			return false
		}
		dst := make([]byte, len(data))
		if err := s.Read(id, dst); err != nil {
			return false
		}
		return bytes.Equal(dst, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStoreIsolationBetweenIDs(t *testing.T) {
	s := NewSimStore(0)
	a := []byte{1, 1, 1}
	b := []byte{2, 2, 2}
	s.Write(1, a)
	s.Write(2, b)
	a[0] = 99 // caller mutation must not leak into the store
	got := make([]byte, 3)
	s.Read(1, got)
	if got[0] != 1 {
		t.Error("store aliases caller buffer")
	}
	s.Read(2, got)
	if !bytes.Equal(got, []byte{2, 2, 2}) {
		t.Error("cross-ID contamination")
	}
}

func TestNullStoreContract(t *testing.T) {
	s := NewNullStore(0)
	if err := s.Write(1, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if !s.Has(1) || s.Used() != 3 {
		t.Error("bookkeeping wrong")
	}
	dst := []byte{9, 9, 9}
	if err := s.Read(1, dst); err != nil {
		t.Fatal(err)
	}
	for _, b := range dst {
		if b != 0 {
			t.Error("NullStore reads must zero-fill")
		}
	}
	if err := s.Read(1, make([]byte, 5)); !errors.Is(err, ErrSizeMismatch) {
		t.Errorf("size mismatch err = %v", err)
	}
	if err := s.Read(2, dst); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing err = %v", err)
	}
	if err := s.Delete(1); err != nil || s.Has(1) || s.Used() != 0 {
		t.Error("delete broken")
	}
	if err := s.Close(); err != nil {
		t.Error(err)
	}
}

func TestNullStoreCapacityAtScale(t *testing.T) {
	// The point of NullStore: full-scale capacity limits with no memory.
	capBytes := int64(117)<<30 + 788529152 // ~117.77 GB
	s := NewNullStore(capBytes)
	obj := make([]byte, 1<<20) // the bytes are discarded
	var id uint64
	for {
		if err := s.Write(id, obj); err != nil {
			if !errors.Is(err, ErrNoSpace) {
				t.Fatal(err)
			}
			break
		}
		id++
	}
	if capBytes-s.Used() >= 1<<20 {
		t.Errorf("exhausted at %d of %d", s.Used(), capBytes)
	}
	if s.Capacity() != capBytes {
		t.Errorf("Capacity = %d", s.Capacity())
	}
}

func TestIsNoSpace(t *testing.T) {
	s := NewSimStore(4)
	err := s.Write(1, make([]byte, 8))
	if !IsNoSpace(err) {
		t.Errorf("IsNoSpace(%v) = false", err)
	}
	if IsNoSpace(nil) || IsNoSpace(ErrNotFound) {
		t.Error("IsNoSpace false positives")
	}
}

func TestAccountedPassthroughs(t *testing.T) {
	inner := NewSimStore(123)
	a := NewAccounted(inner, platform.Test(), nil, nil)
	if a.Capacity() != 123 {
		t.Error("Capacity not forwarded")
	}
	a.Write(5, []byte{1})
	if !a.Has(5) || a.Used() != 1 {
		t.Error("Has/Used not forwarded")
	}
	if err := a.Delete(5); err != nil || a.Has(5) {
		t.Error("Delete not forwarded")
	}
	if err := a.Close(); err != nil {
		t.Error(err)
	}
}
