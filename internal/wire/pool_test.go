package wire

import (
	"bytes"
	"sync"
	"testing"
)

// slabClassCap is the capacity of the slab GetSlab(n) draws from a
// fresh pool.
func slabClassCap(n int) int {
	for _, size := range slabSizes {
		if n <= size {
			return size
		}
	}
	return n
}

func TestSlabClassSizing(t *testing.T) {
	drainSlabs()
	cases := []struct{ n, wantCap int }{
		{1, 64},
		{64, 64},
		{65, 256},
		{1 << 10, 1 << 10},
		{MaxDatagram, MaxDatagram},
		{MaxDatagram + 1, 256<<10 + largeSlabAllowance},
		{4 + 256<<10 + 4, 256<<10 + largeSlabAllowance}, // a 256 KiB object's fetch reply
		{1 << 20, 1<<20 + largeSlabAllowance},
		{1<<20 + largeSlabAllowance + 1, 1<<20 + largeSlabAllowance + 1}, // oversize: plain allocation
	}
	for _, tc := range cases {
		b := GetSlab(tc.n)
		if len(b) != 0 {
			t.Errorf("GetSlab(%d) len = %d, want 0", tc.n, len(b))
		}
		if cap(b) != tc.wantCap {
			t.Errorf("GetSlab(%d) cap = %d, want %d", tc.n, cap(b), tc.wantCap)
		}
		PutSlab(b)
	}
	drainSlabs()
}

func TestSlabReuseAndRetainBound(t *testing.T) {
	drainSlabs()
	defer drainSlabs()
	b := GetSlab(100)
	marker := append(b, 1, 2, 3)
	PutSlab(marker)
	b2 := GetSlab(100)
	if cap(b2) != cap(marker) {
		t.Fatalf("second GetSlab did not reuse the released slab")
	}
	// The retain bound drops excess slabs instead of growing without
	// bound.
	many := make([][]byte, 200)
	for i := range many {
		many[i] = GetSlab(100)
	}
	for _, s := range many {
		PutSlab(s)
	}
	c := &slabClasses[1] // the 256-byte class
	c.mu.Lock()
	kept := len(c.free)
	c.mu.Unlock()
	if kept > slabRetain(256) {
		t.Errorf("class retains %d slabs, bound is %d", kept, slabRetain(256))
	}
}

func TestSlabPutForeignBufferDropped(t *testing.T) {
	drainSlabs()
	defer drainSlabs()
	PutSlab(nil)
	PutSlab(make([]byte, 0, 8)) // below the smallest class
	for ci := range slabClasses {
		c := &slabClasses[ci]
		c.mu.Lock()
		n := len(c.free)
		c.mu.Unlock()
		if n != 0 {
			t.Fatalf("class %d kept a foreign buffer", ci)
		}
	}
}

func TestSlabPoison(t *testing.T) {
	drainSlabs()
	defer drainSlabs()
	SetSlabPoison(true)
	defer SetSlabPoison(false)
	b := append(GetSlab(64), bytes.Repeat([]byte{0x11}, 64)...)
	alias := b[:8]
	PutSlab(b)
	for i, v := range alias {
		if v != slabPoison {
			t.Fatalf("alias[%d] = %#x after release, want poison %#x", i, v, slabPoison)
		}
	}
}

// TestReadCtrlNoAliasIntoPool is the regression test for the control
// decode path: ReadCtrl reads each frame into a pooled slab and
// releases it before returning, so every string in the returned Ctrl
// must be an independent copy. The pool is churned with poisoning on
// while decoded frames are held and re-verified; an alias into the
// released slab turns to 0xDB here (and the concurrent churn makes the
// race detector flag the overlapping access under -race).
func TestReadCtrlNoAliasIntoPool(t *testing.T) {
	drainSlabs()
	defer drainSlabs()
	SetSlabPoison(true)
	defer SetSlabPoison(false)

	frame := ctrlSamples()[1] // CtrlPeers: carries an address list
	var stream bytes.Buffer
	if err := WriteCtrl(&stream, frame); err != nil {
		t.Fatal(err)
	}
	encoded := stream.Bytes()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := GetSlab(len(encoded))
				s = append(s, encoded...)
				PutSlab(s)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		got, err := ReadCtrl(bytes.NewReader(encoded))
		if err != nil {
			t.Fatal(err)
		}
		// Hold the decoded frame across more churn, then verify: any
		// string still aliasing the released slab is poison by now.
		s := GetSlab(len(encoded))
		PutSlab(append(s, bytes.Repeat([]byte{slabPoison}, len(encoded))...))
		if got.Kind != frame.Kind || len(got.Addrs) != len(frame.Addrs) {
			t.Fatalf("iteration %d: frame corrupted: %+v", i, got)
		}
		for j := range got.Addrs {
			if got.Addrs[j] != frame.Addrs[j] {
				t.Fatalf("iteration %d: addr %d = %q, want %q (use-after-release)",
					i, j, got.Addrs[j], frame.Addrs[j])
			}
		}
	}
	close(stop)
	wg.Wait()
}
