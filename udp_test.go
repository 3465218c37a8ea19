package lots

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/disk"
)

// udpConfig is DefaultConfig(n) over real UDP sockets at addrs (nil =
// kernel-assigned loopback ports).
func udpConfig(n int, addrs []string) Config {
	cfg := DefaultConfig(n)
	cfg.Transport = TransportUDP
	cfg.Addrs = addrs
	return cfg
}

func TestClusterOverUDPBasic(t *testing.T) {
	c, err := NewCluster(udpConfig(3, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Run(func(n *Node) {
		a := Alloc[int32](n, 256)
		if n.ID() == 1 {
			for i := 0; i < 256; i++ {
				a.Set(i, int32(i)*3)
			}
		}
		n.Barrier()
		for i := 0; i < 256; i += 17 {
			if got := a.Get(i); got != int32(i)*3 {
				panic(fmt.Sprintf("node %d: a[%d] = %d over UDP", n.ID(), i, got))
			}
		}
		// Locks over real sockets too.
		ctr := Alloc[int32](n, 1)
		n.Barrier()
		n.Acquire(7)
		ctr.Set(0, ctr.Get(0)+1)
		n.Release(7)
		n.Barrier()
		if got := ctr.Get(0); got != int32(n.N()) {
			panic(fmt.Sprintf("node %d: counter = %d over UDP", n.ID(), got))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestClusterOverUDPLargeObject(t *testing.T) {
	// An object bigger than one 64 KB datagram must fragment and
	// reassemble across the real socket path when fetched.
	c, err := NewCluster(udpConfig(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Run(func(n *Node) {
		big := Alloc[int32](n, 64<<10) // 256 KB object
		if n.ID() == 0 {
			big.Set(0, 111)
			big.Set(64<<10-1, 222)
		}
		n.Barrier()
		if big.Get(0) != 111 || big.Get(64<<10-1) != 222 {
			panic("large object corrupted over UDP")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if f := c.counters[0].FragsSent.Load(); f <= c.counters[0].MsgsSent.Load() {
		t.Errorf("expected fragmentation: %d frags for %d msgs", f, c.counters[0].MsgsSent.Load())
	}
}

func TestClusterOverUDPAddrValidation(t *testing.T) {
	if _, err := NewCluster(udpConfig(2, []string{"127.0.0.1:0"})); err == nil {
		t.Error("addr count mismatch should fail")
	}
	if _, err := NewCluster(udpConfig(0, nil)); err == nil {
		t.Error("invalid config should fail")
	}
}

// TestSocketClusterBringUpUnderContention builds and closes socket
// clusters from many goroutines at once. Every rank binds its
// kernel-assigned port exactly once and keeps it, so no concurrent
// bring-up can take a port between its being chosen and being used.
func TestSocketClusterBringUpUnderContention(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				for _, kind := range []TransportKind{TransportUDP, TransportTCP} {
					cfg := DefaultConfig(2)
					cfg.Transport = kind
					c, err := NewCluster(cfg)
					if err != nil {
						t.Errorf("goroutine %d round %d over %v: %v", g, round, kind, err)
						return
					}
					c.Close()
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestRemoteSwapOverflow(t *testing.T) {
	// Node 0's local disk holds only 2 objects' worth; the rest of its
	// spills must overflow to node 1's disk and read back intact (§5
	// remote-disk swapping).
	cfg := DefaultConfig(2)
	cfg.DMMSize = 8 << 10 // 2 x 4 KB objects mapped at a time
	cfg.Store = func(node int) disk.Store {
		if node == 0 {
			return disk.NewSimStore(9 << 10) // ~2 spilled objects max
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
			objs := make([]Ptr[int32], 8) // 32 KB through an 8 KB arena
			for i := range objs {
				objs[i] = Alloc[int32](n, 1024)
				objs[i].Set(0, int32(100+i))
				objs[i].Set(1023, int32(200+i))
			}
			// Everything has churned through the arena; read all back.
			for i, o := range objs {
				if o.Get(0) != int32(100+i) || o.Get(1023) != int32(200+i) {
					panic(fmt.Sprintf("object %d lost after remote swap", i))
				}
			}
		} else {
			// Peer simply serves remote swap requests; allocations are
			// collective so it must mirror them.
			for i := 0; i < 8; i++ {
				Alloc[int32](n, 1024)
			}
		}
		n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Node 1's store must hold node 0's overflow (namespaced keys).
	if used := c.Node(1).StoreUsed(); used == 0 {
		t.Error("no overflow reached the peer's disk")
	}
}

func TestRemoteSwapValidation(t *testing.T) {
	c := mustCluster(t, DefaultConfig(2))
	if err := c.Run(func(n *Node) {
		if n.ID() == 0 {
			n.EnableRemoteSwap(0) // self: must fail
		}
	}); err == nil {
		t.Error("self remote-swap peer should fail")
	}
	cfg := DefaultConfig(1)
	cfg.LargeObjectSpace = false
	c2 := mustCluster(t, cfg)
	if err := c2.Run(func(n *Node) {
		n.EnableRemoteSwap(0)
	}); err == nil {
		t.Error("remote swap without large object space should fail")
	}
}
