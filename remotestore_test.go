package lots

import (
	"strings"
	"testing"
	"time"

	"repro/internal/disk"
)

// TestRemoteFallbackCapacitySentinelAware: the wrapper must forward
// the local store's capacity instead of hardwiring 0 — to a
// capacity-aware caller a bounded local store otherwise read as
// "unlimited" (or, treating 0 as a limit, as permanently full).
func TestRemoteFallbackCapacitySentinelAware(t *testing.T) {
	bounded := NewRemoteFallbackStore(disk.NewSimStore(12345), nil, 1)
	if got := bounded.Capacity(); got != 12345 {
		t.Errorf("Capacity over a bounded local store = %d, want 12345", got)
	}
	unlimited := NewRemoteFallbackStore(disk.NewSimStore(0), nil, 1)
	if got := unlimited.Capacity(); got != 0 {
		t.Errorf("Capacity over an unlimited local store = %d, want the 0 sentinel", got)
	}
}

// TestRemoteSwapOverflowsToPeer exercises the full spill path inside
// one process: a node with a tiny local disk must overflow evictions
// to its peer, read them back intact, and report the spills.
func TestRemoteSwapOverflowsToPeer(t *testing.T) {
	const words = 512 // 2 KB per object
	cfg := DefaultConfig(2)
	cfg.DMMSize = 4096
	cfg.Store = func(node int) disk.Store {
		if node == 0 {
			return disk.NewSimStore(3 << 10) // fills after one eviction
		}
		return disk.NewSimStore(0)
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Run(func(n *Node) {
		if n.ID() == 0 {
			n.EnableRemoteSwap(1)
		}
		objs := make([]Ptr[int32], 4)
		for i := range objs {
			objs[i] = Alloc[int32](n, words)
		}
		n.Barrier()
		if n.ID() == 0 {
			// Touch every object repeatedly: 4 x 2 KB through a 4 KB DMM
			// area churns evictions; the 3 KB local disk must overflow.
			for pass := 0; pass < 3; pass++ {
				for o, p := range objs {
					for i := 0; i < words; i += 64 {
						p.Set(i, int32(o*10000+pass*100+i))
					}
				}
			}
			for o, p := range objs {
				for i := 0; i < words; i += 64 {
					if got, want := p.Get(i), int32(o*10000+200+i); got != want {
						panic("remote-swapped object corrupted")
					}
				}
			}
		}
		n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if spills := c.Node(0).RemoteSpills(); spills == 0 {
		t.Error("local disk never overflowed to the peer — spill path not exercised")
	}
	if c.Node(1).RemoteSpills() != 0 {
		t.Error("peer reports spills although it never enabled remote swap")
	}
}

// TestRemoteSwapRingAnswersNoSpace: two ranks each spill to the other,
// as lotsnode's -remote ring does, and both disks fill. A rank serves a
// peer's spill from its own disk only, so the third spill is refused
// with "no space" and Run fails at once. The serving rank used to spill
// it on through its own remote fallback, back to the first rank, and
// the two handed it to and fro, one more goroutine each time, forever.
func TestRemoteSwapRingAnswersNoSpace(t *testing.T) {
	const words = 512 // 2 KB per object
	cfg := DefaultConfig(2)
	cfg.DMMSize = 4096
	cfg.Store = func(int) disk.Store { return disk.NewSimStore(3 << 10) } // one spill each
	c := mustCluster(t, cfg)
	done := make(chan error, 1)
	go func() {
		done <- c.Run(func(n *Node) {
			n.EnableRemoteSwap(1 - n.ID())
			objs := make([]Ptr[int32], 8)
			for i := range objs {
				objs[i] = Alloc[int32](n, words)
			}
			n.Barrier() // both fallbacks are in place
			if n.ID() == 0 {
				for o, p := range objs {
					p.Set(0, int32(o)) // 8 x 2 KB through a 4 KB DMM area
				}
			}
		})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "full") {
			t.Errorf("Run = %v, want node 0 failing on a full disk", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Run still spilling after 10s; %d goroutines serve remote swap-outs", goroutinesIn("(*Node).serveRemoteSwapOut"))
	}
	// The last handler may still be returning from its reply.
	for deadline := time.Now().Add(5 * time.Second); goroutinesIn("(*Node).serveRemoteSwapOut") > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines left serving remote swap-outs", goroutinesIn("(*Node).serveRemoteSwapOut"))
			break
		}
	}
}
