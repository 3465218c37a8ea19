package jiajia

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/platform"
)

func mustCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{Nodes: nodes, Platform: platform.Test()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("cluster close: %v", err)
		}
	})
	return c
}

func TestSingleNodeReadWrite(t *testing.T) {
	c := mustCluster(t, 1)
	err := c.Run(func(n *Node) {
		a := n.Alloc(4096)
		n.WriteI32(a+8, 42)
		if got := n.ReadI32(a + 8); got != 42 {
			panic(fmt.Sprintf("got %d", got))
		}
		n.WriteF64(a+16, 2.5)
		if n.ReadF64(a+16) != 2.5 {
			panic("f64")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierPropagates(t *testing.T) {
	c := mustCluster(t, 4)
	err := c.Run(func(n *Node) {
		a := n.Alloc(64 * 4)
		if n.ID() == 1 {
			for i := 0; i < 64; i++ {
				n.WriteI32(a+4*i, int32(i))
			}
		}
		n.Barrier()
		for i := 0; i < 64; i++ {
			if got := n.ReadI32(a + 4*i); got != int32(i) {
				panic(fmt.Sprintf("node %d: [%d] = %d", n.ID(), i, got))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLockCounter(t *testing.T) {
	const nodes, per = 4, 20
	c := mustCluster(t, nodes)
	err := c.Run(func(n *Node) {
		a := n.Alloc(4)
		for i := 0; i < per; i++ {
			n.Acquire(3)
			n.WriteI32(a, n.ReadI32(a)+1)
			n.Release(3)
		}
		n.Barrier()
		if got := n.ReadI32(a); got != nodes*per {
			panic(fmt.Sprintf("node %d: counter = %d, want %d", n.ID(), got, nodes*per))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMultiWriterDisjointWordsMergeAtHome(t *testing.T) {
	const nodes = 4
	c := mustCluster(t, nodes)
	err := c.Run(func(n *Node) {
		a := n.Alloc(nodes * 4) // all in one page: false sharing on purpose
		n.WriteI32(a+4*n.ID(), int32(100+n.ID()))
		n.Barrier()
		for i := 0; i < nodes; i++ {
			if got := n.ReadI32(a + 4*i); got != int32(100+i) {
				panic(fmt.Sprintf("node %d: [%d] = %d", n.ID(), i, got))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// The shared page had 4 writers: write-write false sharing.
	if c.Total().FalseShares == 0 {
		t.Error("false sharing not detected")
	}
}

func TestPageAlignmentAndCompactAlloc(t *testing.T) {
	c := mustCluster(t, 2)
	err := c.Run(func(n *Node) {
		a := n.Alloc(10)
		b := n.Alloc(10)
		if a/PageSize == b/PageSize {
			panic("Alloc must be page-aligned")
		}
		x := n.AllocCompact(10)
		y := n.AllocCompact(10)
		// Packed into the same page (8-byte aligned), not page-aligned.
		if y/PageSize != x/PageSize || y-x != 16 {
			panic(fmt.Sprintf("AllocCompact must pack (x=%d y=%d)", x, y))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSharedSpaceBound(t *testing.T) {
	// JIAJIA's defining limitation: the shared space is capped (128 MB
	// by default; here scaled down). LOTS exists because of this.
	c, err := NewCluster(Config{Nodes: 1, Platform: platform.Test(), MaxShared: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Run(func(n *Node) {
		for i := 0; i < 100; i++ {
			n.Alloc(PageSize)
		}
	})
	if err == nil {
		t.Fatal("allocation beyond MaxShared must fail")
	}
}

func TestScopeConsistencyThroughLock(t *testing.T) {
	c := mustCluster(t, 3)
	err := c.Run(func(n *Node) {
		x := n.Alloc(4)
		switch n.ID() {
		case 0:
			n.Acquire(1)
			n.WriteI32(x, 7)
			n.Release(1)
		}
		n.Barrier() // order the test deterministically
		n.Acquire(1)
		if got := n.ReadI32(x); got != 7 {
			panic(fmt.Sprintf("node %d sees %d", n.ID(), got))
		}
		n.Release(1)
		n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReadWriteBytesAcrossPages(t *testing.T) {
	c := mustCluster(t, 2)
	err := c.Run(func(n *Node) {
		a := n.Alloc(3 * PageSize)
		if n.ID() == 0 {
			blob := make([]byte, 2*PageSize)
			for i := range blob {
				blob[i] = byte(i * 13)
			}
			n.WriteBytes(a+100, blob) // straddles two page boundaries
		}
		n.Barrier()
		got := n.ReadBytes(a+100, 2*PageSize)
		for i, b := range got {
			if b != byte(i*13) {
				panic(fmt.Sprintf("node %d: byte %d = %d", n.ID(), i, b))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPageFaultAccounting(t *testing.T) {
	c := mustCluster(t, 2)
	err := c.Run(func(n *Node) {
		a := n.Alloc(PageSize)
		if n.ID() == 1 {
			n.WriteI32(a, 1) // read fault (or local materialize) + write fault
		}
		n.Barrier()
		_ = n.ReadI32(a)
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Total().PageFaults == 0 {
		t.Error("no page faults counted")
	}
}

func TestOutOfBoundsAccessFails(t *testing.T) {
	c := mustCluster(t, 1)
	err := c.Run(func(n *Node) {
		n.Alloc(16)
		n.ReadI32(1 << 20)
	})
	if err == nil {
		t.Fatal("out-of-heap access should fail")
	}
}

// TestRunReportsEveryFailedNode: a multi-node failure names all of its
// casualties, not only the lowest rank.
func TestRunReportsEveryFailedNode(t *testing.T) {
	c := mustCluster(t, 3)
	err := c.Run(func(n *Node) {
		if n.ID() != 1 {
			panic(fmt.Sprintf("boom %d", n.ID()))
		}
	})
	for _, want := range []string{"node 0: boom 0", "node 2: boom 2"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Run error %v does not report %q", err, want)
		}
	}
}

func TestRoundRobinHomes(t *testing.T) {
	c := mustCluster(t, 4)
	n := c.Node(0)
	for pg := uint32(0); pg < 16; pg++ {
		if n.homeOf(pg) != int(pg)%4 {
			t.Fatalf("homeOf(%d) = %d", pg, n.homeOf(pg))
		}
	}
}

func TestBarrierRounds(t *testing.T) {
	const nodes, rounds = 3, 5
	c := mustCluster(t, nodes)
	err := c.Run(func(n *Node) {
		a := n.Alloc(rounds * 4)
		for r := 0; r < rounds; r++ {
			if n.ID() == r%nodes {
				n.WriteI32(a+4*r, int32(1000+r))
			}
			n.Barrier()
			for k := 0; k <= r; k++ {
				if got := n.ReadI32(a + 4*k); got != int32(1000+k) {
					panic(fmt.Sprintf("node %d round %d: [%d]=%d", n.ID(), r, k, got))
				}
			}
			n.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
