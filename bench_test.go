// Package lots_test's benchmarks regenerate the paper's evaluation (§4): one benchmark
// per figure panel and table, plus the ablations of DESIGN.md. Each
// reports the deterministic simulated cluster time as "sim-ms" — the
// quantity corresponding to the paper's measured seconds — alongside
// Go's wall-clock ns/op (which measures this host, not the modelled
// 2004 cluster).
//
//	go test -bench=. -benchmem
//
// Mapping to the paper:
//
//	BenchmarkFig8/*        -> Figure 8 (ME, LU, SOR, RX x {JIAJIA, LOTS, LOTS-x})
//	BenchmarkOverhead/*    -> §4.2 large-object-space overhead (LOTS vs LOTS-x)
//	BenchmarkAccessCheck   -> §4.2 20-25 ns access check measurement
//	BenchmarkViewCost      -> View API redesign: element-wise vs span views (DESIGN.md)
//	BenchmarkViewCopy      -> wall-clock CopyFrom+CopyTo of a 64 KiB row view (the out-of-core sweep's copies)
//	BenchmarkStencilRow    -> wall-clock four-view relax of one 1024-element row (benchmark/'s stencil inner loop)
//	BenchmarkStencilEpoch  -> wall-clock and allocations of benchmark/'s stencil epoch: 2 ranks, 1024², relax + barrier twice
//	BenchmarkMultiwriterEpoch -> wall-clock and allocations of benchmark/'s multiwriter epoch: 2 ranks over UDP, 16 write-shared 256 KiB objects, one barrier
//	BenchmarkLockstepEpoch -> wall-clock and allocations of benchmark/'s lockstep epoch: 2 ranks over TCP, 8 locks, 256 critical sections per rank, one RunBarrier
//	BenchmarkOutOfCoreEpoch -> wall-clock and allocations of benchmark/'s outofcore epoch: 2 ranks, 512 rows of 64 KiB over an 8 MiB arena and a file store each, a write sweep and a read sweep
//	BenchmarkBarrierRanks  -> wall-clock Barrier and RunBarrier over mem at 2 to 64 ranks (DESIGN.md "Barrier cost against rank count")
//	BenchmarkTable1/*      -> Table 1 platform sweep (scaled; sim-ms extrapolates x64)
//	BenchmarkMaxSpace      -> §4.3 free-disk exhaustion (scaled)
//	BenchmarkAblation*     -> DESIGN.md ablation index
package lots_test

import (
	"fmt"
	"path/filepath"
	"testing"

	lots "repro"
	"repro/internal/disk"
	"repro/internal/harness"
	"repro/internal/platform"
)

func benchCell(b *testing.B, spec harness.RunSpec) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := harness.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SimTime.Seconds()*1e3, "sim-ms")
		b.ReportMetric(float64(r.Totals.MsgsSent), "msgs")
		b.ReportMetric(float64(r.Totals.BytesSent), "wire-B")
	}
}

// BenchmarkFig8 regenerates Figure 8, one sub-benchmark per
// (application, system) pair at the mid-size problem with 4 processes.
func BenchmarkFig8(b *testing.B) {
	prof := platform.PIV2GFedora()
	problems := map[harness.AppName]int{
		harness.AppME:  65536,
		harness.AppLU:  64,
		harness.AppSOR: 64,
		harness.AppRX:  65536,
	}
	for _, app := range harness.AllApps() {
		for _, sys := range []harness.System{harness.SysJIAJIA, harness.SysLOTS, harness.SysLOTSX} {
			b.Run(string(app)+"/"+string(sys), func(b *testing.B) {
				benchCell(b, harness.RunSpec{
					System: sys, App: app, Problem: problems[app],
					Procs: 4, Platform: prof,
				})
			})
		}
	}
}

// BenchmarkOverhead regenerates the §4.2 overhead comparison.
func BenchmarkOverhead(b *testing.B) {
	prof := platform.PIV2GFedora()
	problems := map[harness.AppName]int{
		harness.AppME: 65536, harness.AppLU: 64,
		harness.AppSOR: 64, harness.AppRX: 262144,
	}
	for _, app := range harness.AllApps() {
		b.Run(string(app), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := harness.OverheadSweep(
					map[harness.AppName]int{app: problems[app],
						harness.AppME: problems[harness.AppME], harness.AppLU: problems[harness.AppLU],
						harness.AppSOR: problems[harness.AppSOR], harness.AppRX: problems[harness.AppRX]},
					4, prof)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if r.App == app {
						b.ReportMetric(100*r.Overhead, "overhead-%")
					}
				}
			}
		})
	}
}

// BenchmarkAccessCheck measures the per-access status check on a
// resident, clean object — the operation the paper times at 20-25 ns on
// a 2 GHz Pentium IV (this Go runtime pays mutex costs the C++ runtime
// did not; the simulated model charges the paper's figure).
func BenchmarkAccessCheck(b *testing.B) {
	c, err := lots.NewCluster(lots.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	errc := make(chan error, 1)
	done := make(chan struct{})
	err = nil
	go func() {
		errc <- c.Run(func(n *lots.Node) {
			a := lots.Alloc[int32](n, 1024)
			a.Set(0, 1)
			b.ResetTimer()
			var sink int32
			for i := 0; i < b.N; i++ {
				sink += a.Get(i & 1023)
			}
			_ = sink
			close(done)
		})
	}()
	<-done
	if err := <-errc; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkViewCost compares the two access paths of the public API on
// the identical striped workload: element-wise Ptr.Get/Set (one lock +
// one check per element) against pinned zero-copy span views (one lock,
// one check, one pin per span). The `view` cell's sim-ms should run
// several times below `elem`'s with identical msgs;
// TestViewCostSelfAsserts (internal/harness) holds the >=3x bar.
func BenchmarkViewCost(b *testing.B) {
	prof := platform.PIV2GFedora()
	const (
		words  = 8192
		rounds = 2
		passes = 64
		procs  = 2
	)
	for i := 0; i < b.N; i++ {
		r, err := harness.ViewCost(words, rounds, passes, procs, prof)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Elem.SimTime.Seconds()*1e3, "elem-sim-ms")
		b.ReportMetric(r.View.SimTime.Seconds()*1e3, "view-sim-ms")
		b.ReportMetric(float64(r.Elem.Checks), "elem-checks")
		b.ReportMetric(float64(r.View.Checks), "view-checks")
		b.ReportMetric(r.SimRatio(), "sim-ratio-x")
	}
}

// BenchmarkViewCopy is the application's side of an out-of-core sweep:
// one CopyFrom and one CopyTo of a resident 64 KiB row. Wall-clock, not
// simulated time.
func BenchmarkViewCopy(b *testing.B) {
	const words = 8 << 10
	c, err := lots.NewCluster(lots.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	err = c.Run(func(n *lots.Node) {
		v := lots.Alloc[int64](n, words).ViewRW(0, words)
		defer v.Release()
		buf := make([]int64, words)
		b.SetBytes(2 * 8 * words)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf[0] = int64(i)
			v.CopyFrom(buf)
			v.CopyTo(buf)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// relaxRow is the statement benchmark/'s stencil workload runs per row:
// open the three source rows and the destination row as views, relax
// the interior, release.
func relaxRow(dst, src lots.Matrix[float64], row int) {
	up, mid, down := src.RowView(row-1), src.RowView(row), src.RowView(row+1)
	out := dst.RowViewRW(row)
	for c := 1; c < src.Cols()-1; c++ {
		out.Set(c, 0.25*(up.At(c)+down.At(c)+mid.At(c-1)+mid.At(c+1)))
	}
	out.Release()
	down.Release()
	mid.Release()
	up.Release()
}

// BenchmarkStencilRow is one rank relaxing one resident 1024-element
// row: four opens, 1022 Sets and 4088 Ats, four releases. Wall-clock.
func BenchmarkStencilRow(b *testing.B) {
	const dim = 1024
	c, err := lots.NewCluster(lots.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	err = c.Run(func(n *lots.Node) {
		src, dst := lots.AllocMatrix[float64](n, 3, dim), lots.AllocMatrix[float64](n, 3, dim)
		relaxRow(dst, src, 1) // map in, twin
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			relaxRow(dst, src, 1)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStencilEpoch is the shape of benchmark/'s `stencil` workload
// as a root-package benchmark: 2 ranks over mem, two 1024² matrices
// striped by rows, and per epoch a relax a→b, a barrier, a relax b→a, a
// barrier. allocs/op is the workload's allocs_per_epoch. Wall-clock.
func BenchmarkStencilEpoch(b *testing.B) {
	const dim, ranks = 1024, 2
	cfg := lots.DefaultConfig(ranks)
	cfg.DMMSize = 64 << 20 // both grids resident, as in the workload
	c, err := lots.NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	err = c.Run(func(n *lots.Node) {
		a, bb := lots.AllocMatrix[float64](n, dim, dim), lots.AllocMatrix[float64](n, dim, dim)
		lo, hi := n.ID()*dim/ranks, (n.ID()+1)*dim/ranks
		row := make([]float64, dim)
		for r := lo; r < hi; r++ {
			for c := range row {
				row[c] = float64(r*dim+c) / (dim * dim)
			}
			a.SetRow(r, row)
			bb.SetRow(r, row)
		}
		epoch := func() {
			for _, m := range [2][2]lots.Matrix[float64]{{a, bb}, {bb, a}} {
				for r := max(lo, 1); r < min(hi, dim-1); r++ {
					relaxRow(m[1], m[0], r)
				}
				n.Barrier()
			}
		}
		n.Barrier()
		epoch() // fetch the halo rows once, settle the homes
		if n.ID() == 0 {
			b.ReportAllocs()
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			epoch()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMultiwriterEpoch is the shape of benchmark/'s `multiwriter`
// workload as a root-package benchmark: 2 ranks over UDP sockets, 16
// objects of 64 Ki int32 that both ranks write every epoch — even
// objects a dense stripe by CopyFrom, odd objects every 16th word of the
// stripe by Set — then one barrier, so every epoch twins, diffs, ships,
// applies, invalidates and refetches each object. allocs/op is the
// workload's allocs_per_epoch. Wall-clock.
func BenchmarkMultiwriterEpoch(b *testing.B) {
	const objects, words, ranks, sparseStep = 16, 64 << 10, 2, 16
	cfg := lots.DefaultConfig(ranks)
	cfg.DMMSize = 64 << 20
	cfg.Transport = lots.TransportUDP
	c, err := lots.NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	err = c.Run(func(n *lots.Node) {
		objs := make([]lots.Ptr[int32], objects)
		for o := range objs {
			objs[o] = lots.Alloc[int32](n, words)
		}
		lo, hi := n.ID()*words/ranks, (n.ID()+1)*words/ranks
		src := make([]int32, hi-lo)
		for i := range src {
			src[i] = int32(i*ranks + n.ID())
		}
		epoch := func(e int) {
			src[0] = int32(e)
			for o, p := range objs {
				v := p.ViewRW(lo, hi-lo)
				if o%2 == 0 {
					src[1] = int32(o)
					v.CopyFrom(src)
				} else {
					for i := 0; i < v.Len(); i += sparseStep {
						v.Set(i, int32(e*31+o*7+i))
					}
				}
				v.Release()
			}
			n.Barrier()
		}
		n.Barrier()
		for e := 0; e < 3; e++ { // settle the homes, fill the twin and slab pools
			epoch(e)
		}
		if n.ID() == 0 {
			b.ReportAllocs()
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			epoch(3 + i)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkLockstepEpoch is the shape of benchmark/'s `lockstep`
// workload as a root-package benchmark: 2 ranks over TCP sockets, 8
// locks guarding one 64-word int32 object each, and per epoch 256
// critical sections per rank — acquire a pseudo-randomly chosen lock,
// bump this rank's word and the shared last word, release — then one
// RunBarrier. Nearly every message is a lock request, grant or free of
// about 50 bytes, so the transport's per-message cost dominates.
// allocs/op is the workload's allocs_per_epoch. Wall-clock, but not the
// workload's CPU profile. On a 2-CPU host with go1.24, runtime.newstack
// was 16 % of this benchmark's CPU (300 epochs) while `Mux.Serve`
// started a goroutine per request, and below one 10 ms sample in 10.7 s
// of the workload's; it is absent from both now that serve workers keep
// their grown stacks. The difference is the runtime's adaptive initial
// stack size, which is re-estimated at each GC: the workload runs
// through several GCs and starts its goroutines with stacks large
// enough, while this benchmark's last GC comes during set-up (300
// epochs of 100 KiB garbage stay under a heap goal that counts the
// 64 MiB DMM arena), so its goroutines start on 2 KiB stacks.
// With GODEBUG=adaptivestackstart=0 the workload spent 15 % in
// runtime.newstack too. A change to how requests are served is judged
// on the workload.
func BenchmarkLockstepEpoch(b *testing.B) {
	const locks, words, ranks, cs = 8, 64, 2, 256
	cfg := lots.DefaultConfig(ranks)
	cfg.DMMSize = 64 << 20
	cfg.Transport = lots.TransportTCP
	c, err := lots.NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	err = c.Run(func(n *lots.Node) {
		objs := make([]lots.Ptr[int32], locks)
		for k := range objs {
			objs[k] = lots.Alloc[int32](n, words)
		}
		me := n.ID()
		state := uint64(me) + 1 // this rank's xorshift lock choice
		epoch := func() {
			for i := 0; i < cs; i++ {
				state ^= state << 13
				state ^= state >> 7
				state ^= state << 17
				k := int(state>>33) % locks
				p := objs[k]
				n.Acquire(k)
				p.Set(me, p.Get(me)+1)
				p.Set(words-1, p.Get(words-1)+1)
				n.Release(k)
			}
			n.RunBarrier()
		}
		n.Barrier()
		for e := 0; e < 3; e++ { // settle the lock managers, fill the slab pools
			epoch()
		}
		if me == 0 {
			b.ReportAllocs()
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			epoch()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkOutOfCoreEpoch is the shape of benchmark/'s `outofcore`
// workload as a root-package benchmark: 2 ranks over mem, 512 rows of
// 8 Ki int64, an 8 MiB arena and a file store per rank, so each rank's
// 256 rows are twice what it can map. Per epoch each rank sweeps its rows
// in order twice — writing each by CopyFrom, then reading each by CopyTo —
// with a barrier after each sweep, so every open evicts a row to disk and
// maps one in. allocs/op is the workload's allocs_per_epoch. Wall-clock.
func BenchmarkOutOfCoreEpoch(b *testing.B) {
	const rows, words, ranks = 512, 8 << 10, 2
	cfg := lots.DefaultConfig(ranks)
	cfg.DMMSize = 8 << 20
	stores := make([]disk.Store, ranks)
	for i := range stores {
		fs, err := disk.NewFileStore(filepath.Join(b.TempDir(), fmt.Sprint("spill-", i)), 0)
		if err != nil {
			b.Fatal(err)
		}
		defer fs.Close()
		stores[i] = fs
	}
	cfg.Store = func(node int) disk.Store { return stores[node] }
	c, err := lots.NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	err = c.Run(func(n *lots.Node) {
		ptrs := make([]lots.Ptr[int64], rows)
		for i := range ptrs {
			ptrs[i] = lots.Alloc[int64](n, words)
		}
		lo, hi := n.ID()*rows/ranks, (n.ID()+1)*rows/ranks
		buf := make([]int64, words)
		epoch := func(e int) {
			for r := lo; r < hi; r++ {
				v := ptrs[r].ViewRW(0, words)
				buf[0] = int64(e)<<20 | int64(r)
				v.CopyFrom(buf)
				v.Release()
			}
			n.Barrier()
			for r := lo; r < hi; r++ {
				v := ptrs[r].View(0, words)
				v.CopyTo(buf)
				v.Release()
				if buf[0] != int64(e)<<20|int64(r) {
					b.Errorf("rank %d: row %d read back %#x in epoch %d", n.ID(), r, buf[0], e)
				}
			}
			n.Barrier()
		}
		n.Barrier()
		epoch(0) // every row spilled once, every home migrated to its writer
		if n.ID() == 0 {
			b.ReportAllocs()
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			epoch(1 + i)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBarrierRanks is the barrier's cost as the cluster grows: R
// ranks over mem, each writing one object of its own per epoch, so a
// Barrier carries R write notices in, R home decisions out to every
// rank, and no diffs. RunBarrier is the same round with no memory
// action. One op is one barrier; wall-clock.
func BenchmarkBarrierRanks(b *testing.B) {
	for _, ranks := range []int{2, 4, 8, 16, 32, 64} {
		for _, kind := range []string{"barrier", "run"} {
			run := kind == "run"
			b.Run(fmt.Sprintf("R=%d/%s", ranks, kind), func(b *testing.B) {
				cfg := lots.DefaultConfig(ranks)
				cfg.DMMSize = 64 << 10
				c, err := lots.NewCluster(cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				err = c.Run(func(n *lots.Node) {
					objs := make([]lots.Ptr[int32], ranks)
					for i := range objs {
						objs[i] = lots.Alloc[int32](n, 16)
					}
					mine := objs[n.ID()]
					epoch := func(i int) {
						if run {
							n.RunBarrier()
							return
						}
						mine.Set(0, int32(i))
						n.Barrier()
					}
					for i := 0; i < 3; i++ { // every home migrates to its writer
						epoch(i)
					}
					if n.ID() == 0 {
						b.ReportAllocs()
						b.ResetTimer()
					}
					for i := 0; i < b.N; i++ {
						epoch(i)
					}
				})
				if err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (scaled 64x; sim-ms extrapolates
// linearly back to the paper's 1114/976/142 second rows).
func BenchmarkTable1(b *testing.B) {
	for _, spec := range harness.PaperTable1Rows() {
		spec := spec
		b.Run(spec.Platform.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := harness.RunTable1(spec)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.SimTime.Seconds()*1e3, "sim-ms")
				b.ReportMetric(r.FullSimTime.Seconds(), "fullscale-s")
				b.ReportMetric(float64(r.BytesToDisk), "disk-B")
			}
		})
	}
}

// BenchmarkMaxSpace regenerates the §4.3 capacity exhaustion at 1/256
// of the Xeon servers' 117.77 GB free disk.
func BenchmarkMaxSpace(b *testing.B) {
	capacity := platform.XeonSMP().DiskFreeBytes >> 8
	for i := 0; i < b.N; i++ {
		r, err := harness.RunMaxSpaceWithCapacity(16<<20, capacity)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.ReachedBytes)/(1<<20), "space-MB")
		b.ReportMetric(float64(r.Objects), "objects")
	}
}

// BenchmarkAblationProtocol compares the mixed coherence protocol with
// its pure variants (§3.4).
func BenchmarkAblationProtocol(b *testing.B) {
	prof := platform.PIV2GFedora()
	for i := 0; i < b.N; i++ {
		rows, err := harness.AblationProtocol(4, prof)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.SimTime.Seconds()*1e3, r.Variant+"-sim-ms")
		}
	}
}

// BenchmarkAblationDiff compares per-field timestamps with accumulated
// diff chains (§3.5, Figure 7).
func BenchmarkAblationDiff(b *testing.B) {
	prof := platform.PIV2GFedora()
	for i := 0; i < b.N; i++ {
		rows, err := harness.AblationDiff(4, prof)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.DiffB), r.Variant+"-B")
		}
	}
}

// BenchmarkAblationEvict compares LRU+pinning with FIFO eviction (§3.3).
func BenchmarkAblationEvict(b *testing.B) {
	prof := platform.PIV2GFedora()
	for i := 0; i < b.N; i++ {
		rows, err := harness.AblationEvict(prof)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.SimTime.Seconds()*1e3, r.Variant+"-sim-ms")
		}
	}
}

// BenchmarkAblationRunBarrier compares the event-only run_barrier with
// the full barrier (§3.6).
func BenchmarkAblationRunBarrier(b *testing.B) {
	prof := platform.PIV2GFedora()
	for i := 0; i < b.N; i++ {
		rows, err := harness.AblationRunBarrier(4, prof)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.SimTime.Seconds()*1e3, r.Variant+"-sim-ms")
		}
	}
}
