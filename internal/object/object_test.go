package object

import (
	"sync"
	"testing"
	"unsafe"
)

func TestDeclareDeterministicSequence(t *testing.T) {
	// Two "nodes" declaring SPMD-style must produce identical IDs.
	ta, tb := NewTable(), NewTable()
	for i := 0; i < 100; i++ {
		a, b := ta.Declare(), tb.Declare()
		if a != b {
			t.Fatalf("declaration %d: IDs diverge (%d vs %d)", i, a, b)
		}
		if a == NilID {
			t.Fatal("Declare returned NilID")
		}
	}
}

func TestRegisterLookup(t *testing.T) {
	tab := NewTable()
	id := tab.Declare()
	c := &Control{ID: id, Size: 64, Elem: 4}
	if err := tab.Register(c); err != nil {
		t.Fatal(err)
	}
	if got := tab.Lookup(id); got != c {
		t.Error("Lookup returned wrong control")
	}
	if got := tab.Lookup(999); got != nil {
		t.Error("Lookup of unknown ID should be nil")
	}
	if tab.Len() != 1 {
		t.Errorf("Len = %d", tab.Len())
	}
}

func TestRegisterRejectsDuplicatesAndNil(t *testing.T) {
	tab := NewTable()
	id := tab.Declare()
	if err := tab.Register(&Control{ID: id}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Register(&Control{ID: id}); err == nil {
		t.Error("duplicate registration should fail")
	}
	if err := tab.Register(&Control{}); err == nil {
		t.Error("nil-ID registration should fail")
	}
}

func TestWordsRoundsUp(t *testing.T) {
	cases := []struct{ size, words int }{
		{0, 0}, {1, 1}, {4, 1}, {5, 2}, {8, 2}, {1024, 256},
	}
	for _, tc := range cases {
		c := &Control{Size: tc.size}
		if got := c.Words(); got != tc.words {
			t.Errorf("Words(size=%d) = %d, want %d", tc.size, got, tc.words)
		}
	}
}

func TestEnsureStampsLazyAndStable(t *testing.T) {
	c := &Control{Size: 100}
	if c.Stamps != nil {
		t.Fatal("stamps should be lazily allocated")
	}
	s1 := c.EnsureStamps()
	if len(s1) != 25 {
		t.Fatalf("len(stamps) = %d, want 25", len(s1))
	}
	s1[3] = WordStamp{Ver: 9, Lock: 2, Epoch: 1}
	s2 := c.EnsureStamps()
	if &s1[0] != &s2[0] {
		t.Error("EnsureStamps reallocated")
	}
	if s2[3].Ver != 9 {
		t.Error("stamp lost")
	}
}

// TestControlBytes pins the size of the one per-object structure that is
// always resident (§3.1): every declared object costs this much on every
// rank, mapped or not. CI's size ledger prints the logged number.
func TestControlBytes(t *testing.T) {
	const limit = 168
	size := unsafe.Sizeof(Control{})
	t.Logf("per-object control bytes: %d", size)
	if size > limit {
		t.Errorf("object.Control is %d bytes, over the %d-byte budget", size, limit)
	}
}

func TestCopyStateStrings(t *testing.T) {
	for s, want := range map[CopyState]string{
		Initial: "initial", Clean: "clean", Dirty: "dirty", Invalid: "invalid",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
	if CopyState(99).String() != "state(99)" {
		t.Error("unknown state formatting")
	}
}

func TestForEachAndIDs(t *testing.T) {
	tab := NewTable()
	want := map[ID]bool{}
	for i := 0; i < 10; i++ {
		id := tab.Declare()
		tab.Register(&Control{ID: id, Size: i})
		want[id] = true
	}
	seen := 0
	tab.ForEach(func(c *Control) {
		if !want[c.ID] {
			t.Errorf("unexpected object %d", c.ID)
		}
		seen++
	})
	if seen != 10 {
		t.Errorf("ForEach visited %d, want 10", seen)
	}
	if got := tab.IDs(); len(got) != 10 {
		t.Errorf("IDs len = %d", len(got))
	}
}

func TestTableConcurrentAccess(t *testing.T) {
	tab := NewTable()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := tab.Declare()
				if err := tab.Register(&Control{ID: id}); err != nil {
					t.Error(err)
					return
				}
				if tab.Lookup(id) == nil {
					t.Error("lost registration")
					return
				}
			}
		}()
	}
	wg.Wait()
	if tab.Len() != 800 {
		t.Errorf("Len = %d, want 800", tab.Len())
	}
}
