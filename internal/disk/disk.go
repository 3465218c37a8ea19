// Package disk implements the local backing store that gives LOTS its
// large object space. When the dynamic memory mapper evicts an object
// from the DMM area, its bytes are written here; when the object is
// accessed again it is read back (§3.1, §3.3). The shared object space
// is bounded only by the free disk space available (§4.3) — the paper
// reaches 117.77 GB on its Xeon file servers.
//
// Three stores are provided:
//
//   - FileStore: one real swap file under a spill directory, proving
//     the code path against a genuine filesystem.
//   - SimStore: an in-memory store with a capacity limit, standing in
//     for the paper's hard disks so capacity-exhaustion experiments run
//     at full "disk" sizes without writing hundreds of gigabytes.
//   - Accounted: a wrapper adding event counting and simulated-time
//     charging (seek + transfer at the platform's disk bandwidth) to
//     any store.
//
// FileStore's swap file is opened once and holds each object at its own
// extent; Read and Write are one positional read or write between the
// extent and the caller's slice (the DMM slot, for the mapper), under
// the store's mutex so capacity accounting and the I/O are one step. A
// same-size rewrite goes in place; Delete and size-changing rewrites
// hand the old extent to a per-size free list that later writes draw
// from, so a steady sweep never grows the file. A read the file cannot
// wholly satisfy is an error, never zeros; a failed write drops the
// object, so a torn extent is never read back; everything fails after
// Close.
package disk

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/platform"
	"repro/internal/stats"
)

// Store is an object-granularity backing store keyed by object ID.
type Store interface {
	// Write persists data for id, replacing any previous contents.
	Write(id uint64, data []byte) error
	// Read fills dst with the stored bytes for id. dst must be exactly
	// the stored length.
	Read(id uint64, dst []byte) error
	// Delete removes id's spill (no-op if absent).
	Delete(id uint64) error
	// Has reports whether id has a spilled copy.
	Has(id uint64) bool
	// Used reports the bytes currently stored.
	Used() int64
	// Capacity reports the byte limit, or 0 for unlimited.
	Capacity() int64
	// Close releases resources.
	Close() error
}

// ErrNoSpace is returned when a Write would exceed the store capacity —
// the bound on the shared object space (§4.3).
var ErrNoSpace = errors.New("disk: backing store full")

// ErrNotFound is returned when reading an object that was never spilled.
var ErrNotFound = errors.New("disk: object not in backing store")

// ErrSizeMismatch is returned when Read's dst length differs from the
// stored length.
var ErrSizeMismatch = errors.New("disk: read size mismatch")

// SimStore is an in-memory capacity-limited store.
type SimStore struct {
	mu       sync.Mutex
	data     map[uint64][]byte
	used     int64
	capacity int64
}

// NewSimStore returns a simulated disk with the given capacity in bytes
// (0 = unlimited).
func NewSimStore(capacity int64) *SimStore {
	return &SimStore{data: make(map[uint64][]byte), capacity: capacity}
}

// Write implements Store.
func (s *SimStore) Write(id uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := int64(len(s.data[id]))
	next := s.used - old + int64(len(data))
	if s.capacity > 0 && next > s.capacity {
		return fmt.Errorf("%w: need %d bytes, capacity %d", ErrNoSpace, next, s.capacity)
	}
	s.data[id] = append([]byte(nil), data...)
	s.used = next
	return nil
}

// Read implements Store.
func (s *SimStore) Read(id uint64, dst []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.data[id]
	if !ok {
		return fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	if len(d) != len(dst) {
		return fmt.Errorf("%w: stored %d, want %d", ErrSizeMismatch, len(d), len(dst))
	}
	copy(dst, d)
	return nil
}

// Delete implements Store.
func (s *SimStore) Delete(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.data[id]; ok {
		s.used -= int64(len(d))
		delete(s.data, id)
	}
	return nil
}

// Has implements Store.
func (s *SimStore) Has(id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.data[id]
	return ok
}

// Used implements Store.
func (s *SimStore) Used() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Capacity implements Store.
func (s *SimStore) Capacity() int64 { return s.capacity }

// Close implements Store.
func (s *SimStore) Close() error {
	s.mu.Lock()
	s.data = make(map[uint64][]byte)
	s.used = 0
	s.mu.Unlock()
	return nil
}

// extent is the region of the swap file one object's bytes occupy.
type extent struct {
	off, size int64
}

// FileStore keeps every spilled object in one swap file under dir, each
// at its own extent, and moves bytes between an extent and the caller's
// slice with one positional read or write.
type FileStore struct {
	mu       sync.Mutex
	dir      string
	f        *os.File // nil once closed
	extents  map[uint64]extent
	free     map[int64][]int64 // released extent offsets by size
	end      int64             // offset at which the next new extent starts
	used     int64
	capacity int64
	own      bool // we created dir and should remove it on Close
}

// swapFileName is the one file a FileStore keeps in its directory.
const swapFileName = "lots.swap"

// NewFileStore stores spills under dir (created if needed; 0 capacity =
// unlimited). If dir is empty a fresh temp directory is created and
// removed on Close.
func NewFileStore(dir string, capacity int64) (*FileStore, error) {
	own := false
	if dir == "" {
		d, err := os.MkdirTemp("", "lots-spill-*")
		if err != nil {
			return nil, fmt.Errorf("disk: %w", err)
		}
		dir = d
		own = true
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk: %w", err)
	}
	// The extent table lives in memory only, so whatever an earlier
	// store left in the file is unreachable: start from an empty file.
	f, err := os.OpenFile(filepath.Join(dir, swapFileName), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		if own {
			os.RemoveAll(dir) //nolint:errcheck // already failing with err
		}
		return nil, fmt.Errorf("disk: %w", err)
	}
	return &FileStore{
		dir:      dir,
		f:        f,
		extents:  make(map[uint64]extent),
		free:     make(map[int64][]int64),
		capacity: capacity,
		own:      own,
	}, nil
}

// errClosed is returned by operations on a closed FileStore.
var errClosed = fmt.Errorf("disk: file store: %w", os.ErrClosed)

// release returns id's extent to the free list and forgets the object.
// Caller holds s.mu.
func (s *FileStore) release(id uint64, e extent) {
	s.free[e.size] = append(s.free[e.size], e.off)
	s.used -= e.size
	delete(s.extents, id)
}

// Write implements Store. A same-size rewrite goes in place; any other
// write takes a free extent of that size, or a new one at the end of the
// file. If the file write fails, id is dropped from the store: a torn
// extent is never read back.
func (s *FileStore) Write(id uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	size := int64(len(data))
	old, had := s.extents[id]
	if next := s.used - old.size + size; s.capacity > 0 && next > s.capacity {
		return fmt.Errorf("%w: need %d bytes, capacity %d", ErrNoSpace, next, s.capacity)
	}
	e := old
	if !had || old.size != size {
		if had {
			s.release(id, old)
		}
		e = extent{off: s.end, size: size}
		if offs := s.free[size]; len(offs) > 0 {
			e.off = offs[len(offs)-1]
			s.free[size] = offs[:len(offs)-1]
		} else {
			s.end += size
		}
		s.extents[id] = e
		s.used += size
	}
	if _, err := s.f.WriteAt(data, e.off); err != nil {
		s.release(id, e)
		return fmt.Errorf("disk: writing object %d: %w", id, err)
	}
	return nil
}

// Read implements Store. An extent the file no longer wholly holds is an
// error, never a zero-filled dst.
func (s *FileStore) Read(id uint64, dst []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	e, ok := s.extents[id]
	if !ok {
		return fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	if e.size != int64(len(dst)) {
		return fmt.Errorf("%w: stored %d, want %d", ErrSizeMismatch, e.size, len(dst))
	}
	if _, err := s.f.ReadAt(dst, e.off); err != nil {
		return fmt.Errorf("disk: reading object %d: %w", id, err)
	}
	return nil
}

// Delete implements Store; the extent becomes reusable by the next
// write of the same size.
func (s *FileStore) Delete(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	if e, ok := s.extents[id]; ok {
		s.release(id, e)
	}
	return nil
}

// Has implements Store.
func (s *FileStore) Has(id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.extents[id]
	return ok
}

// Used implements Store.
func (s *FileStore) Used() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Capacity implements Store.
func (s *FileStore) Capacity() int64 { return s.capacity }

// Dir returns the spill directory.
func (s *FileStore) Dir() string { return s.dir }

// Close closes the swap file, and removes the spill directory if this
// store created it. Closing twice is harmless.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	s.extents, s.free, s.used = nil, nil, 0
	if s.own {
		if rmErr := os.RemoveAll(s.dir); err == nil {
			err = rmErr
		}
	}
	if err != nil {
		return fmt.Errorf("disk: %w", err)
	}
	return nil
}

// Accounted wraps a Store with event counting and simulated-time
// charging against a platform profile.
type Accounted struct {
	inner Store
	prof  platform.Profile
	ctr   *stats.Counters
	clock *stats.SimClock
}

// NewAccounted wraps inner; ctr and clock may be nil.
func NewAccounted(inner Store, prof platform.Profile, ctr *stats.Counters, clock *stats.SimClock) *Accounted {
	return &Accounted{inner: inner, prof: prof, ctr: ctr, clock: clock}
}

// Write implements Store, charging seek + write-bandwidth time.
func (a *Accounted) Write(id uint64, data []byte) error {
	if err := a.inner.Write(id, data); err != nil {
		return err
	}
	if a.ctr != nil {
		a.ctr.DiskWrites.Add(1)
		a.ctr.DiskWriteBytes.Add(int64(len(data)))
	}
	if a.clock != nil {
		a.clock.Advance(a.prof.DiskWrite(len(data)))
	}
	return nil
}

// Read implements Store, charging seek + read-bandwidth time.
func (a *Accounted) Read(id uint64, dst []byte) error {
	if err := a.inner.Read(id, dst); err != nil {
		return err
	}
	if a.ctr != nil {
		a.ctr.DiskReads.Add(1)
		a.ctr.DiskReadBytes.Add(int64(len(dst)))
	}
	if a.clock != nil {
		a.clock.Advance(a.prof.DiskRead(len(dst)))
	}
	return nil
}

// Delete implements Store (not charged; directory metadata only).
func (a *Accounted) Delete(id uint64) error { return a.inner.Delete(id) }

// Has implements Store.
func (a *Accounted) Has(id uint64) bool { return a.inner.Has(id) }

// Used implements Store.
func (a *Accounted) Used() int64 { return a.inner.Used() }

// Capacity implements Store.
func (a *Accounted) Capacity() int64 { return a.inner.Capacity() }

// Close implements Store.
func (a *Accounted) Close() error { return a.inner.Close() }

var (
	_ Store = (*SimStore)(nil)
	_ Store = (*FileStore)(nil)
	_ Store = (*Accounted)(nil)
)

// NullStore tracks spill sizes and capacity like a real store but
// discards the bytes (Read zero-fills). It exists for full-scale
// capacity experiments — e.g. exhausting a simulated 117.77 GB disk
// (§4.3) — where holding the spilled bytes in host memory is
// impossible and data integrity is not what is being measured.
type NullStore struct {
	mu       sync.Mutex
	sizes    map[uint64]int64
	used     int64
	capacity int64
}

// NewNullStore returns a size-only store with the given capacity
// (0 = unlimited).
func NewNullStore(capacity int64) *NullStore {
	return &NullStore{sizes: make(map[uint64]int64), capacity: capacity}
}

// Write implements Store (bytes discarded).
func (s *NullStore) Write(id uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := s.used - s.sizes[id] + int64(len(data))
	if s.capacity > 0 && next > s.capacity {
		return fmt.Errorf("%w: need %d bytes, capacity %d", ErrNoSpace, next, s.capacity)
	}
	s.sizes[id] = int64(len(data))
	s.used = next
	return nil
}

// Read implements Store (dst is zero-filled).
func (s *NullStore) Read(id uint64, dst []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	size, ok := s.sizes[id]
	if !ok {
		return fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	if size != int64(len(dst)) {
		return fmt.Errorf("%w: stored %d, want %d", ErrSizeMismatch, size, len(dst))
	}
	for i := range dst {
		dst[i] = 0
	}
	return nil
}

// Delete implements Store.
func (s *NullStore) Delete(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sz, ok := s.sizes[id]; ok {
		s.used -= sz
		delete(s.sizes, id)
	}
	return nil
}

// Has implements Store.
func (s *NullStore) Has(id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.sizes[id]
	return ok
}

// Used implements Store.
func (s *NullStore) Used() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Capacity implements Store.
func (s *NullStore) Capacity() int64 { return s.capacity }

// Close implements Store.
func (s *NullStore) Close() error { return nil }

var _ Store = (*NullStore)(nil)

// IsNoSpace reports whether err is a capacity exhaustion.
func IsNoSpace(err error) bool { return errors.Is(err, ErrNoSpace) }
