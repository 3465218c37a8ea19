package lots

import (
	"fmt"
	"unsafe"

	"repro/internal/object"
)

// Pinned zero-copy views (§3.3, statement-scope pinning generalized).
//
// The paper's whole argument for object-granularity access checks is
// that their cost is amortized over large-object accesses — yet an
// element-wise Ptr.Get/Set loop pays the full toll per element: one
// node-mutex acquisition, one table lookup, one status check. A View is
// the API that actually delivers the amortization: creation performs
// exactly one lock acquisition, one access (or write) check, one twin
// creation (for RW views) and one DMM pin for the whole span; every
// subsequent At/Set/CopyTo/CopyFrom then runs against the mapped bytes
// directly, with no lock and no per-element check — the DSM analogue of
// TreadMarks-style direct page access.
//
// Lifetime rules (the same discipline the paper's statement-scope
// pinning imposes):
//
//   - Every View must be Released exactly once; Release unpins the
//     object and (for RW views) closes the mutation window.
//   - A View must not outlive a synchronization point that invalidates
//     the object (Barrier, or an Acquire that invalidates under the
//     home-based ablation): the mapped bytes it caches may be dropped.
//     Releasing an RW view after the critical section that acquired it
//     is fine — the diffs were computed at lock release from the bytes
//     already written.
//   - Views are not safe for concurrent use by multiple goroutines;
//     like Ptr, they belong to the node's single application goroutine.
//
// While an RW view is open this node defers serving object fetches and
// grant-diff reads for that object (the span is mid-mutation; a copy
// served from it would be torn), and defers applying incoming
// lock-scope flushes while any view — RW or read — is open. Because
// peers may be parked on those deferrals, an open RW view must make
// progress toward its Release: do NOT call blocking synchronization
// (Acquire, Barrier, or creating another view of an invalid object,
// which fetches) while holding an RW view. Releasing the lock that
// covers the view's writes is safe — that send does not block on
// peers. This is exactly the discipline of the paper's statement-scope
// pinning: open the spans a statement needs, access, release.
//
// Cost of an access. §3.3's "just a table lookup" pays off only if what
// follows the check is a memory access, so At and Set must inline into
// the caller's loop as a compare, a bounds check and one typed load or
// store (DESIGN.md "What an element access costs" has the numbers):
//
//   - The handle is five words — the span's bytes, a *viewState, a
//     generation — and travels in registers. What an access does not
//     read (node, control block, rw) lives in the viewState, recycled
//     through Node.viewFree: a resident open allocates nothing.
//   - A handle is live iff its generation equals its state's. Release
//     bumps the state's, so every alias of a released view fails the
//     compare: Slice aliases too, and also once the state has gone to a
//     later open of another object.
//   - The inliner's budget is 80; At costs 39 and Set 52. One call on
//     any path costs 57 plus its arguments and puts them over (n.fatalf
//     on At's failure branch: 104; the per-element codec behind a
//     run-time endianness test: 108 and 124). Hence hostLittleEndian is
//     a constant — the codec branch is dead code before the inliner
//     counts — and the failure branches panic with a viewError, a
//     struct literal to the inliner and an error that panicError passes
//     into the *NodeError. CI greps the -m output for At and Set.
//   - The typed access needs element alignment. Mapped bytes start on
//     the DMM's 8-byte granule (under LOTS-x, on a Go heap allocation
//     of whole elements) and spans start whole elements in; viewEnter
//     asserts it once per open, and nothing assumes it per access.

// View is a pinned window onto count elements of a shared object. The
// zero value is invalid; obtain Views from Ptr.View/Ptr.ViewRW (or
// Matrix.RowView/RowViewRW) and Release them when done.
type View[T Elem] struct {
	bytes []byte // the span's mapped bytes, len == count*elemSize[T]()
	s     *viewState
	gen   uint64 // s.gen at open; the view is live while they are equal
}

// viewState is the part of an open view that its accesses do not read,
// shared by the View and its Slice aliases. It belongs to one node for
// good and moves between opens through Node.viewFree.
type viewState struct {
	n   *Node
	c   *object.Control
	gen uint64 // bumped by Release
	rw  bool
}

// viewError is the panic value of a view misuse: a struct literal where
// n.fatalf would be a call, which At and Set cannot afford.
type viewError struct {
	node int
	what string
}

func (e viewError) Error() string { return fmt.Sprintf("lots: node %d: %s", e.node, e.what) }

// View returns a read-only pinned view of elements [i, i+count). It
// performs the span's single access check (fetching a clean copy if the
// local one is invalid) and pins the object in the DMM area until
// Release.
func (p Ptr[T]) View(i, count int) View[T] { return p.makeView(i, count, false) }

// ViewRW returns a read-write pinned view of elements [i, i+count). In
// addition to the access check and pin, it runs the span's single write
// check: the twin is created and the object is marked dirty (and
// attributed to the innermost held critical section) exactly as the
// first Set of a loop would, so per-word timestamp stamping and diff
// computation at lock release or barrier time see precisely what an
// element-wise Set loop over the span would have produced.
func (p Ptr[T]) ViewRW(i, count int) View[T] { return p.makeView(i, count, true) }

func (p Ptr[T]) makeView(i, count int, rw bool) View[T] {
	n := p.n
	n.mu.Lock()
	defer n.mu.Unlock()
	c, base := p.locate(i, count)
	data := n.viewEnter(c, rw)
	var s *viewState
	if k := len(n.viewFree) - 1; k >= 0 {
		s, n.viewFree = n.viewFree[k], n.viewFree[:k]
	} else {
		s = &viewState{n: n}
	}
	s.c, s.rw = c, rw
	return View[T]{
		bytes: data[base : base+count*c.Elem : base+count*c.Elem],
		s:     s,
		gen:   s.gen,
	}
}

// Release unpins the span and, for RW views, reopens fetch service for
// the object. Releasing twice (through any Slice alias) is a fatal
// runtime error, like an unbalanced unpin.
func (v View[T]) Release() {
	s := v.s
	n := s.n
	n.mu.Lock()
	defer n.mu.Unlock()
	if v.gen != s.gen {
		panic(viewError{n.id, "double Release of view"})
	}
	s.gen++
	n.viewExit(s.c, s.rw)
	n.viewFree = append(n.viewFree, s)
}

// Len returns the number of elements in the view.
func (v View[T]) Len() int { return len(v.bytes) / elemSize[T]() }

// RW reports whether the view permits writes. Like ObjectID, it is
// meaningful until Release.
func (v View[T]) RW() bool { return v.s.rw }

// ObjectID exposes the underlying shared object ID (diagnostics).
func (v View[T]) ObjectID() uint64 { return uint64(v.s.c.ID) }

// At reads element k. No lock, no access check: the span was checked
// and pinned at creation. Kept inlinable — see the header before adding
// anything to the body. The liveness check is use()'s, written out:
// through the helper At and Set still inline (45 and 58), but
// BenchmarkStencilRow ran 1.1–1.6× slower in 5 of 5 alternating runs.
// Likewise unsafe.Sizeof for elemSize[T](): a generic call carries a
// dictionary argument, 7 more each.
func (v View[T]) At(k int) T {
	if v.gen != v.s.gen {
		panic(viewError{v.s.n.id, "access through released view"})
	}
	var z T
	return getElem[T](v.bytes, k*int(unsafe.Sizeof(z)))
}

// Set writes element k. The view must have been created with ViewRW.
// Kept inlinable, like At.
func (v View[T]) Set(k int, x T) {
	if v.gen != v.s.gen {
		panic(viewError{v.s.n.id, "access through released view"})
	}
	if !v.s.rw {
		panic(viewError{v.s.n.id, "write through read-only view"})
	}
	putElem(v.bytes, k*int(unsafe.Sizeof(x)), x)
}

// Slice returns a sub-view of elements [lo, hi) sharing this view's pin
// and release state: releasing either the parent or the slice releases
// the whole span, once.
func (v View[T]) Slice(lo, hi int) View[T] {
	v.use()
	if lo < 0 || hi < lo || hi > v.Len() {
		v.s.n.fatalf("lots: node %d: view slice [%d,%d) of %d elements", v.s.n.id, lo, hi, v.Len())
	}
	es := elemSize[T]()
	v.bytes = v.bytes[lo*es : hi*es : hi*es]
	return v
}

// CopyTo copies min(len(dst), v.Len()) elements out of the view and
// returns the number copied.
func (v View[T]) CopyTo(dst []T) int {
	v.use()
	m := min(len(dst), v.Len())
	getElems(dst[:m], v.bytes[:m*elemSize[T]()])
	return m
}

// CopyFrom copies min(len(src), v.Len()) elements into the view and
// returns the number copied. The view must have been created with
// ViewRW.
func (v View[T]) CopyFrom(src []T) int {
	v.use()
	if !v.s.rw {
		panic(viewError{v.s.n.id, "write through read-only view"})
	}
	m := min(len(src), v.Len())
	putElems(v.bytes[:m*elemSize[T]()], src[:m])
	return m
}

// use aborts on access through a released view — the one residual
// per-access branch: a load and a predictable compare against the
// state's generation rather than a mutex and a table lookup. At and Set
// carry their own copy.
func (v View[T]) use() {
	if v.gen != v.s.gen {
		panic(viewError{v.s.n.id, "access through released view"})
	}
}
