package phases

import (
	"sync"
	"testing"
	"time"
)

func TestRingObserveAndTotals(t *testing.T) {
	r := NewRing(4)
	r.Observe(0, BarrierWait, 10*time.Nanosecond)
	r.Observe(0, BarrierWait, 5*time.Nanosecond)
	r.Observe(1, FetchServe, 7*time.Nanosecond)
	ns, events := r.Totals()
	if ns[BarrierWait] != 15 || events[BarrierWait] != 2 {
		t.Errorf("barrier_wait totals = %dns/%d events, want 15/2", ns[BarrierWait], events[BarrierWait])
	}
	if ns[FetchServe] != 7 || events[FetchServe] != 1 {
		t.Errorf("fetch_serve totals = %dns/%d events, want 7/1", ns[FetchServe], events[FetchServe])
	}
	eps := r.Epochs()
	if len(eps) != 2 || eps[0].Epoch != 0 || eps[1].Epoch != 1 {
		t.Fatalf("Epochs() = %+v, want epochs 0,1", eps)
	}
	if eps[0].NS[BarrierWait] != 15 || eps[1].NS[FetchServe] != 7 {
		t.Errorf("per-epoch ns wrong: %+v", eps)
	}
}

// TestRingWraps: a ring of W slots keeps only the most recent epochs;
// an old epoch's slot is recycled, never merged into.
func TestRingWraps(t *testing.T) {
	r := NewRing(4)
	for e := uint32(0); e < 10; e++ {
		r.Observe(e, DiffApply, time.Duration(e+1))
	}
	eps := r.Epochs()
	if len(eps) != 4 {
		t.Fatalf("retained %d epochs, want 4", len(eps))
	}
	for i, want := range []uint32{6, 7, 8, 9} {
		if eps[i].Epoch != want {
			t.Errorf("epoch[%d] = %d, want %d", i, eps[i].Epoch, want)
		}
		if eps[i].NS[DiffApply] != int64(want+1) {
			t.Errorf("epoch %d ns = %d, want %d (stale slot merged?)", want, eps[i].NS[DiffApply], want+1)
		}
	}
	ns, events := r.Totals()
	if ns[DiffApply] != 55 || events[DiffApply] != 10 {
		t.Errorf("totals survive wrapping: ns=%d events=%d, want 55/10", ns[DiffApply], events[DiffApply])
	}
}

// TestRingNilSafe: a nil ring is a valid no-op recorder, so protocol
// instrumentation sites never need a guard.
func TestRingNilSafe(t *testing.T) {
	var r *Ring
	r.Observe(0, BarrierWait, time.Second)
	if eps := r.Epochs(); eps != nil {
		t.Errorf("nil ring Epochs() = %v, want nil", eps)
	}
	ns, events := r.Totals()
	if ns != ([NumKinds]int64{}) || events != ([NumKinds]int64{}) {
		t.Errorf("nil ring totals non-zero")
	}
}

// TestRingConcurrentScrape: observers on every phase race a scraper —
// the -race build is the assertion.
func TestRingConcurrentScrape(t *testing.T) {
	r := NewRing(8)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, k := range Kinds() {
		wg.Add(1)
		go func(k Kind) {
			defer wg.Done()
			for e := uint32(0); ; e++ {
				r.Observe(e, k, time.Nanosecond)
				select {
				case <-stop:
					return
				default:
				}
			}
		}(k)
	}
	for i := 0; i < 100; i++ {
		r.Epochs()
		r.Totals()
	}
	close(stop)
	wg.Wait()
	_, events := r.Totals()
	for _, k := range Kinds() {
		if events[k] == 0 {
			t.Errorf("phase %v recorded no events", k)
		}
	}
}

func TestKindStrings(t *testing.T) {
	want := []string{"barrier_wait", "diff_apply", "fetch_serve", "ckpt_cut"}
	ks := Kinds()
	if len(ks) != int(NumKinds) {
		t.Fatalf("Kinds() returned %d kinds, want %d", len(ks), NumKinds)
	}
	for i, k := range ks {
		if k.String() != want[i] {
			t.Errorf("kind %d = %q, want %q", i, k.String(), want[i])
		}
	}
}
