package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"path/filepath"

	lots "repro"
	"repro/internal/disk"
)

// sizes holds every problem-size parameter. defaultSizes is the
// benchmark; the tests shrink it and run the same code.
type sizes struct {
	Ranks        int     `json:"ranks"`
	DMM          int     `json:"dmm_bytes"`       // per-rank arena of the resident workloads
	StencilN     int     `json:"stencil_n"`       // grid dimension: N rows of N float64
	MWObjects    int     `json:"mw_objects"`      // multiwriter shared objects
	MWWords      int     `json:"mw_words"`        // int32 words per object
	Locks        int     `json:"lockstep_locks"`  // lockstep locks, one 64-word object each
	CSPerEpoch   int     `json:"lockstep_cs"`     // critical sections per rank per epoch
	OOCRows      int     `json:"outofcore_rows"`  // row objects in total
	OOCWords     int     `json:"outofcore_words"` // int64 words per row
	OOCDMM       int     `json:"outofcore_dmm"`   // per-rank arena: half a rank's share of the rows
	Warmup       int     `json:"warmup_epochs"`   // discarded epochs before the steady window
	SetupSeconds float64 `json:"setup_seconds"`   // how long an untraced run repeats its set-up for, after the window
	CellScale    int     `json:"cell_scale_pct"`  // percent of each isolated cell's operation count to run
}

// ops scales an isolated cell's operation count; the tests run a
// fiftieth of the benchmark's.
func (sz sizes) ops(n int) int { return max(n*sz.CellScale/100, 1) }

func defaultSizes() sizes {
	return sizes{
		Ranks:        max(hostProcs(), 2),
		DMM:          64 << 20,
		StencilN:     1024,
		MWObjects:    16,
		MWWords:      64 << 10,
		Locks:        8,
		CSPerEpoch:   256,
		OOCRows:      512,
		OOCWords:     8 << 10,
		OOCDMM:       8 << 20,
		Warmup:       3,
		SetupSeconds: 4,
		CellScale:    100,
	}
}

// body is one rank's half of a workload.
type body interface {
	// epoch performs one unit of work and ends in a barrier, so every
	// rank finishes the same epoch before any starts the next.
	epoch(e int, r *recorder)
	// corrupt overwrites one shared word with a wrong value through the
	// public API (rank 0 only acts); the verifier must then fail.
	corrupt()
	// verify checks the shared state after epochs epochs against an
	// independently computed expectation and digests it. Collective.
	verify(epochs int) verdict
}

// verdict is one rank's verification result.
type verdict struct {
	attempted, failed int
	digest            [sha256.Size]byte
}

// workload is one of the benchmark's four load shapes.
type workload struct {
	name string
	// config returns the cluster configuration; tmp is a directory the
	// workload may create files under.
	config func(sz sizes, tmp string) (lots.Config, error)
	// newBody is collective: it allocates and initialises the shared
	// objects and returns after the first barrier.
	newBody func(n *lots.Node, sz sizes, seed int64) body
	// phases names the body's kPhase tags.
	phases []string
	// objBytes is the size of one shared object, and twinBytes the bytes
	// all ranks together copy into twins per epoch: inputs to the
	// cell-cost predictions, computed from the sizes, not measured.
	objBytes  func(sz sizes) int
	twinBytes func(sz sizes) float64
	// elemsPerEpoch is the element updates one rank's kApp spans perform
	// per epoch (stencil only), for recon.stencil_access.
	elemsPerEpoch func(sz sizes) float64
}

var workloads = []*workload{
	{name: "stencil", config: residentConfig(lots.TransportMem), newBody: newStencil,
		phases:    []string{"red", "black"},
		objBytes:  func(sz sizes) int { return 8 * sz.StencilN },
		twinBytes: func(sz sizes) float64 { return 2 * float64(sz.StencilN-2) * 8 * float64(sz.StencilN) },
		elemsPerEpoch: func(sz sizes) float64 {
			return 2 * float64(sz.StencilN-2) * float64(sz.StencilN-2) / float64(sz.Ranks)
		}},
	{name: "multiwriter", config: residentConfig(lots.TransportUDP), newBody: newMultiwriter,
		objBytes:  func(sz sizes) int { return 4 * sz.MWWords },
		twinBytes: func(sz sizes) float64 { return float64(sz.MWObjects * sz.Ranks * 4 * sz.MWWords) }},
	{name: "lockstep", config: residentConfig(lots.TransportTCP), newBody: newLockstep,
		objBytes:  func(sizes) int { return 4 * lockWords },
		twinBytes: func(sz sizes) float64 { return float64(sz.CSPerEpoch * sz.Ranks * 4 * lockWords) }},
	{name: "outofcore", config: outOfCoreConfig, newBody: newOutOfCore,
		phases:    []string{"write_sweep", "read_sweep"},
		objBytes:  func(sz sizes) int { return 8 * sz.OOCWords },
		twinBytes: func(sz sizes) float64 { return float64(sz.OOCRows * 8 * sz.OOCWords) }},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func residentConfig(tr lots.TransportKind) func(sizes, string) (lots.Config, error) {
	return func(sz sizes, _ string) (lots.Config, error) {
		cfg := lots.DefaultConfig(sz.Ranks)
		cfg.DMMSize = sz.DMM
		cfg.Transport = tr
		return cfg, nil
	}
}

// outOfCoreConfig is always two ranks: the workload measures the DMM
// and the disk, and more ranks would only divide the same rows.
func outOfCoreConfig(sz sizes, tmp string) (lots.Config, error) {
	cfg := lots.DefaultConfig(2)
	cfg.DMMSize = sz.OOCDMM
	stores := make([]*disk.FileStore, cfg.Nodes)
	for i := range stores {
		fs, err := disk.NewFileStore(filepath.Join(tmp, fmt.Sprintf("spill-%d", i)), 0)
		if err != nil {
			return cfg, err
		}
		stores[i] = fs
	}
	cfg.Store = func(node int) disk.Store { return stores[node] }
	return cfg, nil
}

// mix64 is splitmix64's finaliser: the benchmark's only source of
// pseudo-random inputs, so values depend on -seed and nothing else.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func mix(seed int64, a, b, c int) uint64 {
	return mix64(mix64(mix64(uint64(seed)^uint64(a)<<40)^uint64(b)<<20) ^ uint64(c))
}

// stripe returns rank me's half-open share of n items split p ways.
func stripe(n, p, me int) (lo, hi int) {
	lo = me * (n / p)
	hi = lo + n/p
	if me == p-1 {
		hi = n
	}
	return lo, hi
}

// digester folds shared state into a SHA-256 that must agree on every
// rank.
type digester struct {
	h   hash.Hash
	buf []byte
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) i32(v []int32) {
	d.buf = d.buf[:0]
	for _, x := range v {
		d.buf = binary.LittleEndian.AppendUint32(d.buf, uint32(x))
	}
	d.h.Write(d.buf)
}

func (d *digester) i64(v []int64) {
	d.buf = d.buf[:0]
	for _, x := range v {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(x))
	}
	d.h.Write(d.buf)
}

func (d *digester) f64(v []float64) {
	d.buf = d.buf[:0]
	for _, x := range v {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(x))
	}
	d.h.Write(d.buf)
}

func (d *digester) sum() (out [sha256.Size]byte) {
	copy(out[:], d.h.Sum(nil))
	return out
}

// ---- stencil ------------------------------------------------------------

// stencil is the paper's SOR: two N x N float64 grids, one shared
// object per row, rows split across ranks. Every row has one writer, so
// after the first barrier each row's home is its writer: no diffs, and
// only the two halo rows at each slice boundary move per half-step.
// What remains is the view layer: four opens and releases, one twin and
// N element accesses per row.
type stencil struct {
	n      *lots.Node
	a, b   lots.Matrix[float64]
	lo, hi int
	dim    int
	seed   int64
}

// stencilInit is the seeded initial value of grid g at (row, col): in
// [1,2), so repeated averaging never decays into denormals, whose
// arithmetic is slow enough to bend the epoch time as a run proceeds.
func stencilInit(seed int64, g, row, col int) float64 {
	return 1 + float64(mix(seed, g, row, col)>>11)/(1<<53)
}

func newStencil(n *lots.Node, sz sizes, seed int64) body {
	s := &stencil{n: n, dim: sz.StencilN, seed: seed}
	s.a = lots.AllocMatrix[float64](n, s.dim, s.dim)
	s.b = lots.AllocMatrix[float64](n, s.dim, s.dim)
	s.lo, s.hi = stripe(s.dim, n.N(), n.ID())
	row := make([]float64, s.dim)
	for g, m := range []lots.Matrix[float64]{s.a, s.b} {
		for r := s.lo; r < s.hi; r++ {
			for c := range row {
				row[c] = stencilInit(seed, g, r, c)
			}
			m.SetRow(r, row)
		}
	}
	n.Barrier()
	return s
}

func (s *stencil) epoch(_ int, r *recorder) {
	for half, m := range [2][2]lots.Matrix[float64]{{s.a, s.b}, {s.b, s.a}} {
		r.beginPhase(uint8(half))
		s.relax(m[0], m[1], r)
		t := r.syncBegin(kBarrier)
		s.n.Barrier()
		r.syncEnd(t)
		r.end()
	}
}

// relax updates dst's interior rows of this rank's slice from src's
// neighbours: the four rows a stencil statement touches are opened as
// views, the inner loop runs on them, and they are released.
func (s *stencil) relax(dst, src lots.Matrix[float64], r *recorder) {
	for row := max(s.lo, 1); row < min(s.hi, s.dim-1); row++ {
		r.begin(kOpen)
		up := src.RowView(row - 1)
		r.end()
		r.begin(kOpen)
		mid := src.RowView(row)
		r.end()
		r.begin(kOpen)
		down := src.RowView(row + 1)
		r.end()
		r.begin(kOpen)
		out := dst.RowViewRW(row)
		r.end()

		r.begin(kApp)
		for c := 1; c < s.dim-1; c++ {
			out.Set(c, 0.25*(up.At(c)+down.At(c)+mid.At(c-1)+mid.At(c+1)))
		}
		r.end()

		r.begin(kRelease)
		out.Release()
		r.end()
		r.begin(kRelease)
		down.Release()
		r.end()
		r.begin(kRelease)
		mid.Release()
		r.end()
		r.begin(kRelease)
		up.Release()
		r.end()
	}
}

func (s *stencil) corrupt() {
	if s.n.ID() == 0 {
		s.a.Set(max(s.lo, 1), 1, -1)
	}
	s.n.Barrier()
}

// sequentialStencil runs the same relaxation on plain slices. Every rank
// computes it for itself: with one rank per core that takes no longer
// than one rank computing it while the others wait.
func sequentialStencil(dim, epochs int, seed int64) [2][][]float64 {
	var grids [2][][]float64
	for g := range grids {
		grids[g] = make([][]float64, dim)
		for r := range grids[g] {
			grids[g][r] = make([]float64, dim)
			for c := range grids[g][r] {
				grids[g][r][c] = stencilInit(seed, g, r, c)
			}
		}
	}
	relax := func(dst, src [][]float64) {
		for r := 1; r < dim-1; r++ {
			for c := 1; c < dim-1; c++ {
				dst[r][c] = 0.25 * (src[r-1][c] + src[r+1][c] + src[r][c-1] + src[r][c+1])
			}
		}
	}
	for e := 0; e < epochs; e++ {
		relax(grids[0], grids[1])
		relax(grids[1], grids[0])
	}
	return grids
}

func (s *stencil) verify(epochs int) verdict {
	want := sequentialStencil(s.dim, epochs, s.seed)
	var v verdict
	d := newDigester()
	row := make([]float64, s.dim)
	for g, m := range []lots.Matrix[float64]{s.a, s.b} {
		for r := 0; r < s.dim; r++ {
			view := m.RowView(r)
			view.CopyTo(row)
			view.Release()
			d.f64(row)
			if r < s.lo || r >= s.hi {
				continue
			}
			v.attempted++
			for c := range row {
				if !(math.Abs(row[c]-want[g][r][c]) <= 1e-9) {
					v.failed++
					break
				}
			}
		}
	}
	v.digest = d.sum()
	s.n.Barrier()
	return v
}

// ---- multiwriter --------------------------------------------------------

// multiwriter is write-shared data: every rank writes its stripe of
// every object every epoch, so each non-home writer twins the object,
// computes a stamped diff and ships it to the home, the home applies
// it, and every non-home copy is invalidated and fetched whole again.
// Even objects get a dense stripe (CopyFrom), odd objects a sparse one
// (every 16th word by Set), so that a diffing change that helps one
// shape cannot hide a loss on the other.
type multiwriter struct {
	n      *lots.Node
	objs   []lots.Ptr[int32]
	words  int
	lo, hi int
	seed   int64
	dense  [2][]int32 // this rank's stripe contents, by epoch parity
	offset int        // first sparse word within a 16-word group, from the seed
}

const sparseStep = 16

// denseWord is word i (stripe-relative) of rank's dense stripe on
// epochs of the given parity.
func denseWord(seed int64, rank, parity, i int) int32 { return int32(mix(seed, rank, parity, i)) }

// initWord is the initial value of word i of odd object o.
func initWord(seed int64, o, i int) int32 { return int32(mix(seed, 1000+o, 7, i)) }

// sparseWord is what epoch e writes to word i of odd object o.
func sparseWord(e, o, i int) int32 { return int32(e*31 + o*7 + i) }

func sparseOffset(seed int64) int { return int(mix(seed, 3, 3, 3) % sparseStep) }

func newMultiwriter(n *lots.Node, sz sizes, seed int64) body {
	m := &multiwriter{n: n, words: sz.MWWords, seed: seed, offset: sparseOffset(seed)}
	m.objs = make([]lots.Ptr[int32], sz.MWObjects)
	for o := range m.objs {
		m.objs[o] = lots.Alloc[int32](n, m.words)
	}
	m.lo, m.hi = stripe(m.words, n.N(), n.ID())
	for p := range m.dense {
		m.dense[p] = make([]int32, m.hi-m.lo)
		for i := range m.dense[p] {
			m.dense[p][i] = denseWord(seed, n.ID(), p, i)
		}
	}
	init := make([]int32, m.hi-m.lo)
	for o := 1; o < len(m.objs); o += 2 {
		for i := range init {
			init[i] = initWord(seed, o, m.lo+i)
		}
		v := m.objs[o].ViewRW(m.lo, m.hi-m.lo)
		v.CopyFrom(init)
		v.Release()
	}
	n.Barrier()
	return m
}

func (m *multiwriter) epoch(e int, r *recorder) {
	src := m.dense[e%2]
	src[0] = int32(e)
	for o, p := range m.objs {
		r.begin(kOpen)
		v := p.ViewRW(m.lo, m.hi-m.lo)
		r.end()
		if o%2 == 0 {
			src[1] = int32(o)
			r.begin(kCopy)
			v.CopyFrom(src)
			r.end()
		} else {
			r.begin(kApp)
			for i := m.offset; i < v.Len(); i += sparseStep {
				v.Set(i, sparseWord(e, o, m.lo+i))
			}
			r.end()
		}
		r.begin(kRelease)
		v.Release()
		r.end()
	}
	t := r.syncBegin(kBarrier)
	m.n.Barrier()
	r.syncEnd(t)
}

func (m *multiwriter) corrupt() {
	if m.n.ID() == 0 {
		m.objs[0].Set(m.lo+5, -12345)
	}
	m.n.Barrier()
}

func (m *multiwriter) verify(epochs int) verdict {
	var v verdict
	d := newDigester()
	last := epochs - 1
	got := make([]int32, m.words)
	want := make([]int32, m.words)
	for o, p := range m.objs {
		for rank := 0; rank < m.n.N(); rank++ {
			lo, hi := stripe(m.words, m.n.N(), rank)
			for i := lo; i < hi; i++ {
				switch {
				case o%2 == 1 && (i-lo)%sparseStep == m.offset:
					want[i] = sparseWord(last, o, i)
				case o%2 == 1:
					want[i] = initWord(m.seed, o, i)
				case i == lo:
					want[i] = int32(last)
				case i == lo+1:
					want[i] = int32(o)
				default:
					want[i] = denseWord(m.seed, rank, last%2, i-lo)
				}
			}
		}
		view := p.View(0, m.words)
		view.CopyTo(got)
		view.Release()
		d.i32(got)
		v.attempted++
		for i := range got {
			if got[i] != want[i] {
				v.failed++
				break
			}
		}
	}
	v.digest = d.sum()
	m.n.Barrier()
	return v
}

// ---- lockstep -----------------------------------------------------------

// lockstep is the homeless write-update protocol under scope
// consistency: short critical sections on a few locks, each carrying a
// few dozen bytes of updates with the grant. About four messages of
// about 50 bytes per critical section, so per-message cost — socket
// syscalls, codec, dispatch — is nearly all of it.
type lockstep struct {
	n     *lots.Node
	objs  []lots.Ptr[int32]
	cs    int
	seed  int64
	state uint64 // this rank's lock-choice generator
}

const (
	lockWords  = 64
	sharedWord = lockWords - 1
)

func lockChoiceSeed(seed int64, rank int) uint64 { return mix(seed, rank, 11, 13) }

// nextLock advances a rank's generator and returns its next lock.
func nextLock(state *uint64, locks int) int {
	*state = mix64(*state)
	return int(*state>>33) % locks
}

func newLockstep(n *lots.Node, sz sizes, seed int64) body {
	l := &lockstep{n: n, cs: sz.CSPerEpoch, seed: seed, state: lockChoiceSeed(seed, n.ID())}
	l.objs = make([]lots.Ptr[int32], sz.Locks)
	for i := range l.objs {
		l.objs[i] = lots.Alloc[int32](n, lockWords)
	}
	n.Barrier()
	return l
}

func (l *lockstep) epoch(_ int, r *recorder) {
	me := l.n.ID()
	for i := 0; i < l.cs; i++ {
		k := nextLock(&l.state, len(l.objs))
		p := l.objs[k]
		// sync.call_us times the acquires whose lock manager is a peer (lock
		// l's manager is rank l mod N, lock.go's managerOf): one managed
		// here is granted without a message, ten times faster, and the
		// two would make one bimodal sample.
		if k%l.n.N() != me {
			t := r.syncBegin(kAcquire)
			l.n.Acquire(k)
			r.syncEnd(t)
		} else {
			r.begin(kAcquire)
			l.n.Acquire(k)
			r.end()
		}
		r.begin(kAccess)
		p.Set(me, p.Get(me)+1)
		p.Set(sharedWord, p.Get(sharedWord)+1)
		r.end()
		r.begin(kUnlock)
		l.n.Release(k)
		r.end()
	}
	r.begin(kRunBarrier)
	l.n.RunBarrier()
	r.end()
}

func (l *lockstep) corrupt() {
	if l.n.ID() == 0 {
		l.n.Acquire(0)
		l.objs[0].Set(sharedWord, -1)
		l.n.Release(0)
	}
	l.n.RunBarrier()
}

func (l *lockstep) verify(epochs int) verdict {
	ranks, locks := l.n.N(), len(l.objs)
	want := make([][]int32, locks)
	for k := range want {
		want[k] = make([]int32, lockWords)
	}
	for rank := 0; rank < ranks; rank++ {
		st := lockChoiceSeed(l.seed, rank)
		for i := 0; i < epochs*l.cs; i++ {
			k := nextLock(&st, locks)
			want[k][rank]++
			want[k][sharedWord]++
		}
	}
	var v verdict
	d := newDigester()
	got := make([]int32, lockWords)
	for k, p := range l.objs {
		l.n.Acquire(k)
		view := p.View(0, lockWords)
		view.CopyTo(got)
		view.Release()
		l.n.Release(k)
		d.i32(got)
		for w := range got {
			if w < ranks || w == sharedWord {
				v.attempted++
				if got[w] != want[k][w] {
					v.failed++
				}
			}
		}
	}
	v.digest = d.sum()
	l.n.RunBarrier()
	return v
}

// ---- outofcore ----------------------------------------------------------

// outOfCore is the paper's headline: an object space larger than the
// DMM area. Each rank sweeps its own rows — twice its arena — in order,
// LRU's worst case, so every row is evicted to disk and mapped back in
// every sweep. The write sweep and the read sweep are separate phases
// so that a gain on one that costs the other shows.
type outOfCore struct {
	n       *lots.Node
	rows    []lots.Ptr[int64]
	words   int
	lo, hi  int
	seed    int64
	fill    [2][]int64 // row contents by epoch parity; word 0 is stamped per row
	fillSum [2]int64   // sum of fill[p][1:]
	buf     []int64
	checked int // sweep sums compared
	wrong   int // sweep sums that differed
}

func fillWord(seed int64, parity, i int) int64 { return int64(mix(seed, 21, parity, i) >> 8) }

// rowStamp is word 0 of a row after epoch e's write sweep.
func rowStamp(e, row int) int64 { return int64(e)<<20 | int64(row) }

func newOutOfCore(n *lots.Node, sz sizes, seed int64) body {
	o := &outOfCore{n: n, words: sz.OOCWords, seed: seed, buf: make([]int64, sz.OOCWords)}
	o.rows = make([]lots.Ptr[int64], sz.OOCRows)
	for i := range o.rows {
		o.rows[i] = lots.Alloc[int64](n, o.words)
	}
	o.lo, o.hi = stripe(len(o.rows), n.N(), n.ID())
	for p := range o.fill {
		o.fill[p] = make([]int64, o.words)
		for i := 1; i < o.words; i++ {
			o.fill[p][i] = fillWord(seed, p, i)
			o.fillSum[p] += o.fill[p][i]
		}
	}
	n.Barrier()
	return o
}

func (o *outOfCore) epoch(e int, r *recorder) {
	src := o.fill[e%2]
	r.beginPhase(0)
	for row := o.lo; row < o.hi; row++ {
		r.begin(kOpen)
		v := o.rows[row].ViewRW(0, o.words)
		r.end()
		src[0] = rowStamp(e, row)
		r.begin(kCopy)
		v.CopyFrom(src)
		r.end()
		r.begin(kRelease)
		v.Release()
		r.end()
	}
	t := r.syncBegin(kBarrier)
	o.n.Barrier()
	r.syncEnd(t)
	r.end()

	r.beginPhase(1)
	for row := o.lo; row < o.hi; row++ {
		r.begin(kOpen)
		v := o.rows[row].View(0, o.words)
		r.end()
		r.begin(kCopy)
		v.CopyTo(o.buf)
		r.end()
		r.begin(kRelease)
		v.Release()
		r.end()
		r.begin(kApp)
		var sum int64
		for _, x := range o.buf {
			sum += x
		}
		o.checked++
		if sum != o.fillSum[e%2]+rowStamp(e, row) {
			o.wrong++
		}
		r.end()
	}
	t = r.syncBegin(kBarrier)
	o.n.Barrier()
	r.syncEnd(t)
	r.end()
}

func (o *outOfCore) corrupt() {
	if o.n.ID() == 0 {
		o.rows[o.lo].Set(3, -1)
	}
	o.n.Barrier()
}

func (o *outOfCore) verify(epochs int) verdict {
	v := verdict{attempted: o.checked, failed: o.wrong}
	d := newDigester()
	last := epochs - 1
	for row, p := range o.rows {
		view := p.View(0, o.words)
		view.CopyTo(o.buf)
		view.Release()
		d.i64(o.buf)
		v.attempted++
		ok := o.buf[0] == rowStamp(last, row)
		for i := 1; ok && i < o.words; i++ {
			ok = o.buf[i] == fillWord(o.seed, last%2, i)
		}
		if !ok {
			v.failed++
		}
	}
	v.digest = d.sum()
	o.n.Barrier()
	return v
}
