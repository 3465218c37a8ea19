package lots

import (
	"sync"

	"repro/internal/disk"
)

// remoteFallbackStore spills to the local store until it fills, then to
// a peer's disk over the transport — the paper's §5 future-work item
// "the swapping can also be done not only to and from local hard disks,
// but remote ones as well".
type remoteFallbackStore struct {
	local disk.Store
	n     *Node
	peer  int

	mu     sync.Mutex
	remote map[uint64]int // id -> stored size at the peer
	spills int64          // lifetime remote swap-outs (diagnostics)
}

// NewRemoteFallbackStore wraps local so that ErrNoSpace overflows to
// peer's backing store via remote-swap messages.
func NewRemoteFallbackStore(local disk.Store, n *Node, peer int) disk.Store {
	return &remoteFallbackStore{local: local, n: n, peer: peer, remote: make(map[uint64]int)}
}

func (s *remoteFallbackStore) Write(id uint64, data []byte) error {
	err := s.local.Write(id, data)
	if err == nil {
		s.mu.Lock()
		delete(s.remote, id)
		s.mu.Unlock()
		return nil
	}
	// A peer's spill (remoteKey) stays local: it would go round a ring.
	if !disk.IsNoSpace(err) || id>>63 == 1 {
		return err
	}
	if err := s.n.remoteSwapOut(s.peer, id, data); err != nil {
		return err
	}
	s.mu.Lock()
	s.remote[id] = len(data)
	s.spills++
	s.mu.Unlock()
	return nil
}

// Spills reports the lifetime number of remote swap-outs.
func (s *remoteFallbackStore) Spills() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spills
}

func (s *remoteFallbackStore) Read(id uint64, dst []byte) error {
	s.mu.Lock()
	_, isRemote := s.remote[id]
	s.mu.Unlock()
	if !isRemote {
		return s.local.Read(id, dst)
	}
	return s.n.remoteSwapIn(s.peer, id, dst)
}

func (s *remoteFallbackStore) Delete(id uint64) error {
	s.mu.Lock()
	_, isRemote := s.remote[id]
	delete(s.remote, id)
	s.mu.Unlock()
	if isRemote {
		return nil // peer-side spill becomes garbage; harmless
	}
	return s.local.Delete(id)
}

func (s *remoteFallbackStore) Has(id uint64) bool {
	s.mu.Lock()
	_, isRemote := s.remote[id]
	s.mu.Unlock()
	return isRemote || s.local.Has(id)
}

func (s *remoteFallbackStore) Used() int64 {
	s.mu.Lock()
	r := int64(0)
	for _, sz := range s.remote {
		r += int64(sz)
	}
	s.mu.Unlock()
	return s.local.Used() + r
}

// Capacity forwards the wrapped local store's limit, sentinel-aware
// (0 stays "unlimited"). It previously hardwired 0 with an "unbounded
// via peers" reading — but 0 is the interface's unlimited sentinel
// only for stores that really are unlimited; a capacity-aware caller
// comparing Used() against Capacity() would see a bounded local store
// as either infinitely empty or (treating 0 as a limit) permanently
// full. The peer overflow extends the effective space but the local
// disk's bound is the honest answer for sizing decisions.
func (s *remoteFallbackStore) Capacity() int64 { return s.local.Capacity() }

func (s *remoteFallbackStore) Close() error { return s.local.Close() }
