package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	lots "repro"
	"repro/internal/diffing"
	"repro/internal/disk"
	"repro/internal/dmm"
	"repro/internal/object"
	"repro/internal/recovery"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Isolated cells: each layer's public type is constructed directly,
// set-up is hoisted, batches of calls are timed, and the median batch
// is reported. Input shapes copy the workloads' (8 KiB rows, 64 KiB
// rows, 256 KiB objects, 256 B messages).

const cellBatches = 5

// cells collects metric values by name.
type cells map[string]float64

// sink keeps results the compiler could otherwise discard.
var sink int

// medianNS times fn cellBatches times and returns the median duration
// in nanoseconds.
func medianNS(fn func()) float64 {
	d := make([]float64, cellBatches)
	for i := range d {
		t0 := time.Now()
		fn()
		d[i] = float64(time.Since(t0))
	}
	sort.Float64s(d)
	return d[len(d)/2]
}

// mallocsPer returns the heap allocations one call of fn makes,
// averaged over ops calls.
func mallocsPer(ops int, fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < ops; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(ops)
}

func gbps(bytes int, ns float64) float64 { return float64(bytes) / ns }

func mbps(bytes int, ns float64) float64 { return float64(bytes) / (1 << 20) / (ns / 1e9) }

// runCells measures every isolated cell. tmp is a directory for the
// disk and recovery cells' files.
func runCells(sz sizes, tmp string) (cells, error) {
	out := cells{}
	for _, layer := range []func(cells, sizes, string) error{
		viewCells, fetchCells, barrierCells, lockCells, objectCells, dmmCells,
		diskCells, diffingCells, wireCells, transportCells, recoveryCells, traceCells,
	} {
		if err := layer(out, sz, tmp); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ---- view ---------------------------------------------------------------

func viewCells(out cells, sz sizes, _ string) error {
	const rows, cols = 256, 1024 // 8 KiB float64 rows, as in stencil
	cfg := lots.DefaultConfig(1)
	cfg.DMMSize = 16 << 20
	c, err := lots.NewCluster(cfg)
	if err != nil {
		return err
	}
	defer c.Close()
	return c.Run(func(n *lots.Node) {
		m := lots.AllocMatrix[float64](n, rows, cols)
		big := lots.Alloc[int32](n, 16<<10) // 64 KiB, as in outofcore
		zero := make([]float64, cols)
		for r := 0; r < rows; r++ {
			m.SetRow(r, zero)
		}
		big.Set(0, 1)
		n.Barrier() // everything resident, clean, homed here

		p := m.Row(0)
		accesses := sz.ops(200_000)
		var acc float64
		out["view.get_ns"] = medianNS(func() {
			for i := 0; i < accesses; i++ {
				acc += p.Get(i & (cols - 1))
			}
		}) / float64(accesses)
		out["view.set_ns"] = medianNS(func() {
			for i := 0; i < accesses; i++ {
				p.Set(i&(cols-1), 1)
			}
		}) / float64(accesses)
		n.Barrier()

		sweeps := sz.ops(40)
		out["view.open_ns"] = medianNS(func() {
			for s := 0; s < sweeps; s++ {
				for r := 0; r < rows; r++ {
					v := m.RowView(r)
					v.Release()
				}
			}
		}) / float64(sweeps*rows)

		// The first RW open of an epoch twins the row; the barrier that
		// closes the epoch (untimed) drops the twin again.
		first := make([]float64, cellBatches)
		for b := range first {
			t0 := time.Now()
			for r := 0; r < rows; r++ {
				v := m.RowViewRW(r)
				v.Release()
			}
			first[b] = float64(time.Since(t0)) / rows
			n.Barrier()
		}
		sort.Float64s(first)
		out["view.openrw_first_ns"] = first[len(first)/2]

		up, mid, down, dst := m.RowView(0), m.RowView(1), m.RowView(2), m.RowViewRW(3)
		passes := sz.ops(40)
		out["view.elem_ns"] = medianNS(func() {
			for s := 0; s < passes; s++ {
				for c := 1; c < cols-1; c++ {
					dst.Set(c, 0.25*(up.At(c)+down.At(c)+mid.At(c-1)+mid.At(c+1)))
				}
			}
		}) / float64(passes*(cols-2))
		dst.Release()
		down.Release()
		mid.Release()
		up.Release()

		buf := make([]int32, big.Len())
		w := big.ViewRW(0, big.Len())
		copies := sz.ops(100)
		out["view.copy_GBps"] = gbps(2*copies*4*len(buf), medianNS(func() {
			for s := 0; s < copies; s++ {
				w.CopyFrom(buf)
				w.CopyTo(buf)
			}
		}))
		w.Release()
		sink += int(acc)
	})
}

// ---- fetch --------------------------------------------------------------

// faultUS is the median latency of a view open on an invalidated copy
// homed at the peer: rank 0 writes the object every round (so it is the
// home and rank 1's copy is invalidated at the barrier) and rank 1
// times the open that has to fetch it.
func faultUS(tr lots.TransportKind, words, rounds int) (float64, error) {
	cfg := lots.DefaultConfig(2)
	cfg.Transport = tr
	cfg.DMMSize = 16 << 20
	c, err := lots.NewCluster(cfg)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	var lat []int64
	err = c.Run(func(n *lots.Node) {
		p := lots.Alloc[int32](n, words)
		for i := 0; i < rounds+2; i++ {
			if n.ID() == 0 {
				p.Set(0, int32(i+1))
			}
			n.Barrier()
			if n.ID() == 1 {
				t0 := time.Now()
				v := p.View(0, words)
				d := time.Since(t0)
				v.Release()
				if i >= 2 { // the first rounds migrate the home
					lat = append(lat, int64(d))
				}
			}
			n.Barrier()
		}
	})
	return float64(percentile(sortedCopy(lat), 0.5)) / 1e3, err
}

func fetchCells(out cells, sz sizes, _ string) (err error) {
	if out["fetch.fault_8K_mem_us"], err = faultUS(lots.TransportMem, 2<<10, sz.ops(200)); err != nil {
		return err
	}
	out["fetch.fault_256K_udp_us"], err = faultUS(lots.TransportUDP, 64<<10, sz.ops(40))
	return err
}

// ---- barrier ------------------------------------------------------------

// barrierUS is the median per-call time of a barrier nobody wrote
// anything before, on ranks ranks over the mem transport with objects
// objects allocated (the barrier walks the object table for write
// notices).
func barrierUS(ranks, objects, calls int, runOnly bool) (float64, error) {
	cfg := lots.DefaultConfig(ranks)
	c, err := lots.NewCluster(cfg)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	var us float64
	err = c.Run(func(n *lots.Node) {
		for i := 0; i < objects; i++ {
			lots.Alloc[int32](n, 16)
		}
		n.Barrier()
		ns := medianNS(func() {
			for i := 0; i < calls; i++ {
				if runOnly {
					n.RunBarrier()
				} else {
					n.Barrier()
				}
			}
		})
		if n.ID() == 0 {
			us = ns / float64(calls) / 1e3
		}
	})
	return us, err
}

func barrierCells(out cells, sz sizes, _ string) (err error) {
	if out["barrier.empty_us"], err = barrierUS(sz.Ranks, 16, sz.ops(100), false); err != nil {
		return err
	}
	if out["barrier.empty_8k_objs_us"], err = barrierUS(sz.Ranks, 8192, sz.ops(100), false); err != nil {
		return err
	}
	out["barrier.run_us"], err = barrierUS(sz.Ranks, 16, sz.ops(100), true)
	return err
}

// ---- lock ---------------------------------------------------------------

func lockCells(out cells, sz sizes, _ string) error {
	cfg := lots.DefaultConfig(2)
	cfg.Transport = lots.TransportTCP
	c, err := lots.NewCluster(cfg)
	if err != nil {
		return err
	}
	defer c.Close()
	pairs := sz.ops(400)
	return c.Run(func(n *lots.Node) {
		p := lots.Alloc[int32](n, lockWords)
		n.Barrier()
		// Lock 1 is managed by rank 1; rank 0 takes and frees it alone.
		if n.ID() == 0 {
			out["lock.remote_uncontended_us"] = medianNS(func() {
				for i := 0; i < pairs; i++ {
					n.Acquire(1)
					n.Release(1)
				}
			}) / float64(pairs) / 1e3
		}
		n.RunBarrier()
		// Both ranks take lock 0 in turn, each writing its word of the
		// object in the lock's scope, so every grant carries an update.
		ns := medianNS(func() {
			for i := 0; i < pairs; i++ {
				n.Acquire(0)
				p.Set(n.ID(), int32(i))
				n.Release(0)
			}
			n.RunBarrier()
		})
		if n.ID() == 0 {
			out["lock.handoff_us"] = ns / float64(2*pairs) / 1e3
		}
	})
}

// ---- object -------------------------------------------------------------

func objectCells(out cells, sz sizes, _ string) error {
	const objects = 2048 // stencil's table
	t := object.NewTable()
	for i := 0; i < objects; i++ {
		if err := t.Register(&object.Control{ID: t.Declare(), Size: 8 << 10, Elem: 8}); err != nil {
			return err
		}
	}
	lookups := sz.ops(400_000)
	out["object.lookup_ns"] = medianNS(func() {
		for i := 0; i < lookups; i++ {
			if t.Lookup(object.ID(1+i%objects)) != nil {
				sink++
			}
		}
	}) / float64(lookups)
	walks := sz.ops(100)
	out["object.foreach_ns_per_obj"] = medianNS(func() {
		for i := 0; i < walks; i++ {
			t.ForEach(func(c *object.Control) {
				if c.WrittenInEpoch {
					sink++
				}
			})
		}
	}) / float64(walks*objects)
	return nil
}

// ---- dmm ----------------------------------------------------------------

func dmmCells(out cells, sz sizes, _ string) error {
	// The workloads' arena. NullStore keeps the disk out of these cells.
	out["dmm.new_mapper_ms"] = medianNS(func() {
		m := dmm.NewMapper(sz.DMM, disk.NewNullStore(0), nil)
		sink += m.ArenaSize()
	}) / 1e6

	a := dmm.NewAllocator(8 << 20)
	mixed := []int{64, 8 << 10, 200, 64 << 10, 4 << 10, 256 << 10}
	for used, i := 0, 0; used < a.Size()/2; i++ {
		s := mixed[i%len(mixed)]
		if _, ok := a.Alloc(s); !ok {
			return fmt.Errorf("dmm cell: arena fill failed at %d bytes", used)
		}
		used += s
	}
	allocs := sz.ops(20_000)
	var cellErr error
	out["dmm.alloc_free_ns"] = medianNS(func() {
		for i := 0; i < allocs; i++ {
			s := mixed[i%len(mixed)]
			off, ok := a.Alloc(s)
			if !ok {
				cellErr = fmt.Errorf("dmm cell: alloc of %d failed", s)
				return
			}
			if err := a.Free(off, s); err != nil {
				cellErr = err
				return
			}
		}
	}) / float64(allocs)
	if cellErr != nil {
		return cellErr
	}

	const rowBytes = 64 << 10
	rows := func(n, bytes int) []*object.Control {
		cs := make([]*object.Control, n)
		for i := range cs {
			cs[i] = &object.Control{ID: object.ID(i + 1), Size: bytes, Elem: 8}
		}
		return cs
	}
	each := func(cs []*object.Control, f func(*object.Control) error) {
		for _, c := range cs {
			if err := f(c); err != nil && cellErr == nil {
				cellErr = err
			}
		}
	}
	ensure := func(m *dmm.Mapper) func(*object.Control) error {
		return func(c *object.Control) error { _, err := m.Ensure(c); return err }
	}

	// Room available: 128 rows in a 16 MiB arena.
	m := dmm.NewMapper(16<<20, disk.NewNullStore(0), nil)
	cs := rows(128, rowBytes)
	each(cs, ensure(m))
	hits := sz.ops(400_000)
	out["dmm.ensure_hit_ns"] = medianNS(func() {
		for i := 0; i < hits; i++ {
			if _, err := m.Ensure(cs[i&127]); err != nil {
				cellErr = err
			}
		}
	}) / float64(hits)
	each(cs, m.Evict) // every row now has a valid disk copy
	var mapin, evict []float64
	for b := 0; b < cellBatches; b++ {
		t0 := time.Now()
		each(cs, ensure(m))
		mapin = append(mapin, float64(time.Since(t0)))
		each(cs, func(c *object.Control) error { m.MarkDirty(c); return nil })
		t0 = time.Now()
		each(cs, m.Evict)
		evict = append(evict, float64(time.Since(t0)))
	}
	sort.Float64s(mapin)
	sort.Float64s(evict)
	out["dmm.mapin_us"] = mapin[len(mapin)/2] / float64(len(cs)) / 1e3
	out["dmm.evict_us"] = evict[len(evict)/2] / float64(len(cs)) / 1e3

	// Full arena: outofcore's shape, a cyclic sweep over twice what fits.
	full := dmm.NewMapper(sz.OOCDMM, disk.NewNullStore(0), nil)
	sweep := rows(2*sz.OOCDMM/(8*sz.OOCWords), 8*sz.OOCWords)
	each(sweep, ensure(full))
	out["dmm.mapin_evicting_us"] = medianNS(func() { each(sweep, ensure(full)) }) / float64(len(sweep)) / 1e3
	return cellErr
}

// ---- disk ---------------------------------------------------------------

// storeMBps writes then reads objs 64 KiB objects through s and returns
// the median write and read bandwidths.
func storeMBps(s disk.Store, objs int) (write, read float64, err error) {
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i)
	}
	pass := func(op func(id uint64, b []byte) error) float64 {
		return medianNS(func() {
			for i := 0; i < objs; i++ {
				if e := op(uint64(i+1), buf); e != nil && err == nil {
					err = e
				}
			}
		})
	}
	write = mbps(objs*len(buf), pass(s.Write))
	read = mbps(objs*len(buf), pass(s.Read))
	return write, read, err
}

func diskCells(out cells, _ sizes, tmp string) error {
	fs, err := disk.NewFileStore(filepath.Join(tmp, "disk-cell"), 0)
	if err != nil {
		return err
	}
	// A temp dir on this host is the page cache, not a disk.
	if out["disk.file_write_MBps"], out["disk.file_read_MBps"], err = storeMBps(fs, 128); err != nil {
		return err
	}
	out["disk.sim_write_MBps"], out["disk.sim_read_MBps"], err = storeMBps(disk.NewSimStore(0), 128)
	return err
}

// ---- diffing ------------------------------------------------------------

func diffingCells(out cells, sz sizes, _ string) error {
	const size = 256 << 10 // a multiwriter object
	reps := sz.ops(20)
	twin := make([]byte, size)
	for i := range twin {
		twin[i] = byte(i * 7)
	}
	variant := func(change func(word int) bool) []byte {
		cur := diffing.MakeTwin(twin)
		for w := 0; w < size/4; w++ {
			if change(w) {
				cur[4*w] ^= 0xFF
			}
		}
		return cur
	}
	clean := variant(func(int) bool { return false })
	sparse := variant(func(w int) bool { return w%sparseStep == 0 })
	stripe := variant(func(w int) bool { return w < size/16 })
	dense := variant(func(int) bool { return true })
	half := variant(func(w int) bool { return w < size/8 }) // one of two ranks' stripes

	out["diffing.twin_GBps"] = gbps(reps*size, medianNS(func() {
		for i := 0; i < reps; i++ {
			sink += len(diffing.MakeTwin(twin))
		}
	}))
	for name, cur := range map[string][]byte{"clean": clean, "sparse": sparse, "stripe": stripe, "dense": dense} {
		out["diffing.compute_"+name+"_GBps"] = gbps(reps*size, medianNS(func() {
			for i := 0; i < reps; i++ {
				sink += len(diffing.Compute(cur, twin).Runs)
			}
		}))
	}
	out["diffing.compute_allocs_per_op"] = mallocsPer(reps, func() { sink += len(diffing.Compute(sparse, twin).Runs) })

	dd := diffing.Compute(dense, twin)
	dst := make([]byte, size)
	var cellErr error
	out["diffing.apply_GBps"] = gbps(reps*dd.Bytes(), medianNS(func() {
		for i := 0; i < reps; i++ {
			if err := diffing.Apply(dst, dd); err != nil {
				cellErr = err
			}
		}
	}))

	stamps := make([]object.WordStamp, size/4)
	out["diffing.stamped_compute_GBps"] = gbps(reps*size, medianNS(func() {
		for i := 0; i < reps; i++ {
			sink += len(diffing.ComputeStamped(half, twin, stamps, 1).Runs)
		}
	}))
	sd := diffing.ComputeStamped(half, twin, stamps, 1)
	out["diffing.stamped_apply_GBps"] = gbps(reps*sd.Bytes(), medianNS(func() {
		for i := 0; i < reps; i++ {
			if _, err := diffing.ApplyStamped(dst, stamps, sd, 1); err != nil {
				cellErr = err
			}
		}
	}))
	// A lock grant's on-demand diff: the words stamped newer than the
	// requester knows — here one word in sixteen.
	for w := range stamps {
		stamps[w] = object.WordStamp{Ver: uint32(w % sparseStep), Epoch: 1}
	}
	out["diffing.filter_by_stamp_GBps"] = gbps(reps*size, medianNS(func() {
		for i := 0; i < reps; i++ {
			sink += len(diffing.FilterByStamp(dense, stamps, func(s object.WordStamp) bool { return s.Ver == sparseStep-1 }).Runs)
		}
	}))
	out["diffing.encode_decode_GBps"] = gbps(reps*sd.Bytes(), medianNS(func() {
		for i := 0; i < reps; i++ {
			var w wire.Buffer
			sd.Encode(&w)
			got, err := diffing.DecodeStampedDiff(wire.NewReader(w.Bytes()))
			if err != nil {
				cellErr = err
			}
			sink += len(got.Runs)
		}
	}))
	return cellErr
}

// ---- wire ---------------------------------------------------------------

func wireCells(out cells, sz sizes, _ string) error {
	var cellErr error
	codec := func(m wire.Message) func() {
		return func() {
			enc := wire.EncodePooled(m)
			got, err := wire.DecodeInPlace(enc)
			if err != nil {
				cellErr = err
			}
			sink += len(got.Payload)
			wire.PutSlab(enc)
		}
	}
	small := wire.Message{Type: wire.TLockGrant, From: 1, To: 0, ReqID: 42, Payload: make([]byte, 256)}
	large := wire.Message{Type: wire.TObjFetchReply, From: 1, To: 0, ReqID: 42, Payload: make([]byte, 256<<10)}
	smallOps, largeOps := sz.ops(200_000), sz.ops(200)
	one := codec(small)
	out["wire.codec_256B_ns"] = medianNS(func() {
		for i := 0; i < smallOps; i++ {
			one()
		}
	}) / float64(smallOps)
	out["wire.codec_allocs_per_op"] = mallocsPer(sz.ops(1000), one)
	one = codec(large)
	out["wire.codec_256K_us"] = medianNS(func() {
		for i := 0; i < largeOps; i++ {
			one()
		}
	}) / float64(largeOps) / 1e3

	// Fragment and reassemble in the copying mode all three transports
	// use: each frame is fed to the reassembler and its slab returned.
	reasm := wire.NewReassembler()
	msgID := uint64(0)
	fragReasm := func() {
		enc := wire.EncodePooled(large)
		msgID++
		done := false
		err := wire.ForEachFragment(enc, msgID, 0, func(f []byte) error {
			got, ok, err := reasm.Feed(f)
			wire.PutSlab(f)
			if ok {
				done = true
				sink += len(got.Payload)
			}
			return err
		})
		wire.PutSlab(enc)
		if err == nil && !done {
			err = fmt.Errorf("wire cell: message %d did not reassemble", msgID)
		}
		if err != nil {
			cellErr = err
		}
	}
	out["wire.frag_reasm_256K_GBps"] = gbps(largeOps*len(large.Payload), medianNS(func() {
		for i := 0; i < largeOps; i++ {
			fragReasm()
		}
	}))
	out["wire.frag_reasm_allocs_per_op"] = mallocsPer(sz.ops(100), fragReasm)

	const batchMsgs = 16
	batchOps := sz.ops(10_000)
	tiny := wire.Message{Type: wire.TBarrierDiff, From: 1, To: 0, ReqID: 7, Payload: make([]byte, 64)}
	var batch []byte
	out["wire.batch_ns_per_msg"] = medianNS(func() {
		for i := 0; i < batchOps; i++ {
			batch = batch[:0]
			for k := 0; k < batchMsgs; k++ {
				batch = wire.AppendBatchEntry(batch, tiny)
			}
			if err := wire.DecodeBatch(batch, func(m wire.Message) error { sink += len(m.Payload); return nil }); err != nil {
				cellErr = err
			}
		}
	}) / float64(batchOps*batchMsgs)

	out["wire.slab_getput_ns"] = medianNS(func() {
		for i := 0; i < smallOps; i++ {
			wire.PutSlab(wire.GetSlab(1024))
		}
	}) / float64(smallOps)
	return cellErr
}

// ---- recovery -----------------------------------------------------------

func recoveryCells(out cells, _ sizes, tmp string) error {
	st, err := recovery.Open(filepath.Join(tmp, "ckpt-cell"))
	if err != nil {
		return err
	}
	const segs, segBytes, chain = 16, 64 << 10, 8
	// increment builds epoch's checkpoint frame: a full manifest in
	// which the changed objects carry bytes at a new version.
	vers := make([]uint32, segs)
	increment := func(epoch uint32, changed func(i int) bool) wire.CkptPut {
		p := wire.CkptPut{Owner: 0, Epoch: epoch}
		for i := 0; i < segs; i++ {
			s := wire.CkptSeg{ID: uint64(i + 1), Size: segBytes, Elem: 4, Flag: wire.CkptSegUnchanged}
			if changed(i) {
				vers[i] = epoch
				s.Flag, s.Data = wire.CkptSegData, make([]byte, segBytes)
			}
			s.Ver = vers[i]
			p.Segs = append(p.Segs, s)
		}
		return p
	}
	var cellErr error
	base := increment(1, func(int) bool { return true })
	const puts = 8
	out["recovery.put_MBps"] = mbps(puts*segs*segBytes, medianNS(func() {
		for i := 0; i < puts; i++ {
			if err := st.Put(base); err != nil {
				cellErr = err
			}
		}
	}))
	// An 8-epoch chain: the full base, then increments that each carry
	// one changed object and name the rest unchanged.
	for e := uint32(2); e <= chain; e++ {
		if err := st.Put(increment(e, func(i int) bool { return i == int(e)%segs })); err != nil {
			return err
		}
	}
	out["recovery.materialize_ms"] = medianNS(func() {
		p, err := st.Materialize(0, chain)
		if err != nil {
			cellErr = err
		}
		sink += len(p.Segs)
	}) / 1e6
	return cellErr
}

// ---- trace / stats ------------------------------------------------------

func traceCells(out cells, sz sizes, _ string) error {
	ops := sz.ops(400_000)
	span := func(r *trace.Ring) float64 {
		return medianNS(func() {
			for i := 0; i < ops; i++ {
				r.End(r.Begin(trace.FetchReq, 1, 0, wire.TraceCtx{}))
			}
		}) / float64(ops)
	}
	out["trace.disabled_ns"] = span(nil)
	out["trace.enabled_ns"] = span(trace.NewRing(0, 4096))
	var ctr stats.Counters
	out["stats.counter_add_ns"] = medianNS(func() {
		for i := 0; i < ops; i++ {
			ctr.MsgsSent.Add(1)
		}
	}) / float64(ops)
	return nil
}
