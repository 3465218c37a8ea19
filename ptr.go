package lots

import (
	"encoding/binary"
	"math"
	"unsafe"

	"repro/internal/object"
)

// Elem is the set of element types shared arrays may hold. The paper's
// Pointer<T> is a C++ class template; this reproduction supports the
// fixed-size scalar types scientific codes use.
type Elem interface {
	byte | int32 | uint32 | int64 | uint64 | float32 | float64
}

// Ptr is a handle to a shared object — the analogue of the paper's
// Pointer class, which "contains only the object ID, which fits the
// size of a pointer", making pointer arithmetic possible (§3.3). A Ptr
// holds the object ID plus an element offset so that expressions like
// *(a+4) = 1 translate to a.Add(4).SetDeref(1).
//
// Every Get/Set goes through the LOTS access check: a table lookup in
// the common case; a dynamic memory mapping (possibly a disk read, and
// possibly swapping another object out) when the object is not mapped;
// and a coherence fetch when the local copy is not clean.
type Ptr[T Elem] struct {
	n   *Node
	id  object.ID
	off int // element offset for pointer arithmetic
}

// Alloc declares a shared object of count elements and allocates its
// control information on the calling node. It is a collective
// operation: every node must call Alloc in the same order with the same
// arguments (SPMD), which makes the generated object IDs agree
// cluster-wide without communication, as in the paper (§3.2). Physical
// memory for the data is NOT allocated here; it is mapped on first
// access.
func Alloc[T Elem](n *Node, count int) Ptr[T] {
	if count <= 0 {
		n.fatalf("lots: node %d: Alloc of %d elements", n.id, count)
	}
	elem := elemSize[T]()
	n.mu.Lock()
	defer n.mu.Unlock()
	id := n.table.Declare()
	c := &object.Control{
		ID:    id,
		Size:  count * elem,
		Elem:  elem,
		Home:  int(uint64(id) % uint64(n.cfg.Nodes)),
		State: object.Initial,
	}
	if err := n.table.Register(c); err != nil {
		n.fatalf("lots: node %d: %v", n.id, err)
	}
	return Ptr[T]{n: n, id: id}
}

// Nil reports whether the pointer is unallocated.
func (p Ptr[T]) Nil() bool { return p.id == object.NilID }

// ObjectID exposes the shared object ID (diagnostics).
func (p Ptr[T]) ObjectID() uint64 { return uint64(p.id) }

// Len returns the number of elements reachable from this pointer
// (shrinks as the pointer is advanced, like C pointer arithmetic
// against the end of the array).
func (p Ptr[T]) Len() int {
	c := p.n.lookup(p.id)
	return c.Size/c.Elem - p.off
}

// Add returns a pointer advanced by k elements — the paper's supported
// pointer arithmetic on shared objects.
func (p Ptr[T]) Add(k int) Ptr[T] {
	p.off += k
	return p
}

// Get reads element i (relative to the pointer's current offset). It
// is a one-element view: check, pin, read, unpin, all under one node
// lock acquisition.
func (p Ptr[T]) Get(i int) T {
	n := p.n
	n.mu.Lock()
	defer n.mu.Unlock()
	c, base := p.locate(i, 1)
	data := n.viewEnter(c, false)
	v := getElem[T](data, base)
	n.viewExit(c, false)
	return v
}

// Set writes element i (a one-element RW view).
func (p Ptr[T]) Set(i int, v T) {
	n := p.n
	n.mu.Lock()
	defer n.mu.Unlock()
	c, base := p.locate(i, 1)
	data := n.viewEnter(c, true)
	putElem(data, base, v)
	n.viewExit(c, true)
}

// Deref reads *(p), i.e. element 0.
func (p Ptr[T]) Deref() T { return p.Get(0) }

// SetDeref writes *(p) = v.
func (p Ptr[T]) SetDeref(v T) { p.Set(0, v) }

// GetN bulk-reads count elements starting at i: a one-span view that
// copies out. It keeps the paper's element-wise accounting (an
// n-element sweep of the C++ runtime performs n status checks, §4.2);
// use View/CopyTo to both skip the copy and pay a single check.
func (p Ptr[T]) GetN(i, count int) []T {
	if count == 0 {
		return nil
	}
	n := p.n
	n.mu.Lock()
	defer n.mu.Unlock()
	c, base := p.locate(i, count)
	data := n.viewEnter(c, false)
	n.chargeChecks(count - 1)
	out := make([]T, count)
	getElems(out, data[base:base+count*c.Elem])
	n.viewExit(c, false)
	return out
}

// SetN bulk-writes vals starting at element i (a one-span RW view with
// the legacy per-element check accounting; use ViewRW/CopyFrom for the
// single-check path).
func (p Ptr[T]) SetN(i int, vals []T) {
	if len(vals) == 0 {
		return
	}
	n := p.n
	n.mu.Lock()
	defer n.mu.Unlock()
	c, base := p.locate(i, len(vals))
	data := n.viewEnter(c, true)
	n.chargeChecks(len(vals) - 1)
	putElems(data[base:base+len(vals)*c.Elem], vals)
	n.viewExit(c, true)
}

// Pin maps the object in and pins it against swapping, returning the
// unpin function. It implements the statement-scope pinning of §3.3:
// pin every object referenced by a multi-object statement, perform the
// accesses, then unpin.
func (p Ptr[T]) Pin() (unpin func()) {
	n := p.n
	n.mu.Lock()
	defer n.mu.Unlock()
	c := n.lookup(p.id)
	if c.State == object.Invalid {
		n.fetchObject(c, n.clock)
	}
	n.objData(c, n.clock)
	if n.mapper == nil {
		return func() {}
	}
	n.mapper.Pin(c)
	return func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		n.mapper.Unpin(c)
	}
}

// locate validates [i, i+count) against the object bounds and returns
// the control block plus the base byte offset. Caller holds n.mu.
func (p Ptr[T]) locate(i, count int) (*object.Control, int) {
	c := p.n.lookup(p.id)
	first := p.off + i
	// Compared without multiplying: (first+count)*c.Elem can overflow.
	if first < 0 || count < 0 || count > c.Size/c.Elem-first {
		p.n.fatalf("lots: node %d: object %d: access [%d,%d) out of bounds (len %d)",
			p.n.id, p.id, first, first+count, c.Size/c.Elem)
	}
	return c, first * c.Elem
}

// Matrix is a 2-D shared array. Following the paper, each row is a
// separate shared object: "For pointer of pointers or 2-dimension
// arrays, LOTS treats each pointer or row as a separate object" (§3.2).
// This is what eliminates false sharing in LU and SOR.
type Matrix[T Elem] struct {
	rows []Ptr[T]
	cols int
}

// AllocMatrix declares rows×cols shared elements as `rows` separate
// row objects. Collective, like Alloc.
func AllocMatrix[T Elem](n *Node, rows, cols int) Matrix[T] {
	m := Matrix[T]{rows: make([]Ptr[T], rows), cols: cols}
	for r := range m.rows {
		m.rows[r] = Alloc[T](n, cols)
	}
	return m
}

// Rows returns the number of rows.
func (m Matrix[T]) Rows() int { return len(m.rows) }

// Cols returns the number of columns.
func (m Matrix[T]) Cols() int { return m.cols }

// Row returns the shared object holding row r.
func (m Matrix[T]) Row(r int) Ptr[T] { return m.rows[r] }

// Get reads element (r, c).
func (m Matrix[T]) Get(r, c int) T { return m.rows[r].Get(c) }

// Set writes element (r, c).
func (m Matrix[T]) Set(r, c int, v T) { m.rows[r].Set(c, v) }

// RowView returns a read-only pinned view of an entire row — the unit
// the paper's row-per-object layout (§3.2) makes natural.
func (m Matrix[T]) RowView(r int) View[T] { return m.rows[r].View(0, m.cols) }

// RowViewRW returns a read-write pinned view of an entire row.
func (m Matrix[T]) RowViewRW(r int) View[T] { return m.rows[r].ViewRW(0, m.cols) }

// GetRow bulk-reads an entire row through a row view: one access check
// for the row, then a straight copy out.
func (m Matrix[T]) GetRow(r int) []T {
	v := m.RowView(r)
	out := make([]T, m.cols)
	v.CopyTo(out)
	v.Release()
	return out
}

// SetRow bulk-writes an entire row through a row view (one write
// check + twin for the row).
func (m Matrix[T]) SetRow(r int, vals []T) {
	if len(vals) != m.cols {
		m.rows[r].n.fatalf("lots: SetRow of %d values into %d columns", len(vals), m.cols)
	}
	v := m.RowViewRW(r)
	v.CopyFrom(vals)
	v.Release()
}

// ---- element codecs -----------------------------------------------------

// elemSize returns the byte size of T.
func elemSize[T Elem]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// getElem reads the element at byte offset off of b. b must hold whole
// elements of T from its first byte, element-aligned in memory
// (viewEnter asserts it), and off must be a multiple of the element
// size: the bounds check on b[off] then covers the whole element, and
// on a little-endian host the access is one typed load. View.At and
// Ptr.Get share it.
func getElem[T Elem](b []byte, off int) T {
	if hostLittleEndian {
		return *(*T)(unsafe.Pointer(&b[off]))
	}
	return decodeElem[T](b[off:])
}

// putElem writes v at byte offset off of b, under getElem's conditions.
func putElem[T Elem](b []byte, off int, v T) {
	if hostLittleEndian {
		*(*T)(unsafe.Pointer(&b[off])) = v
		return
	}
	encodeElem(b[off:], v)
}

// elemBytes returns the memory of s as bytes.
func elemBytes[T Elem](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*elemSize[T]())
}

// getElems decodes len(dst) elements from b, which holds exactly that
// many.
func getElems[T Elem](dst []T, b []byte) {
	if hostLittleEndian {
		copy(elemBytes(dst), b)
		return
	}
	getElemsEach(dst, b)
}

// putElems encodes src into b, which holds exactly len(src) elements.
func putElems[T Elem](b []byte, src []T) {
	if hostLittleEndian {
		copy(b, elemBytes(src))
		return
	}
	putElemsEach(b, src)
}

// getElemsEach and putElemsEach are the element-by-element codec: the
// big-endian host's path, and the reference the typed accesses and the
// bulk copy are tested against.
func getElemsEach[T Elem](dst []T, b []byte) {
	es := elemSize[T]()
	for k := range dst {
		dst[k] = decodeElem[T](b[k*es:])
	}
}

func putElemsEach[T Elem](b []byte, src []T) {
	es := elemSize[T]()
	for k, v := range src {
		encodeElem(b[k*es:], v)
	}
}

func encodeElem[T Elem](b []byte, v T) {
	switch x := any(v).(type) {
	case byte:
		b[0] = x
	case int32:
		binary.LittleEndian.PutUint32(b, uint32(x))
	case uint32:
		binary.LittleEndian.PutUint32(b, x)
	case float32:
		binary.LittleEndian.PutUint32(b, math.Float32bits(x))
	case int64:
		binary.LittleEndian.PutUint64(b, uint64(x))
	case uint64:
		binary.LittleEndian.PutUint64(b, x)
	case float64:
		binary.LittleEndian.PutUint64(b, math.Float64bits(x))
	}
}

func decodeElem[T Elem](b []byte) T {
	var z T
	switch any(z).(type) {
	case byte:
		return any(b[0]).(T)
	case int32:
		return any(int32(binary.LittleEndian.Uint32(b))).(T)
	case uint32:
		return any(binary.LittleEndian.Uint32(b)).(T)
	case float32:
		return any(math.Float32frombits(binary.LittleEndian.Uint32(b))).(T)
	case int64:
		return any(int64(binary.LittleEndian.Uint64(b))).(T)
	case uint64:
		return any(binary.LittleEndian.Uint64(b)).(T)
	default:
		return any(math.Float64frombits(binary.LittleEndian.Uint64(b))).(T)
	}
}
