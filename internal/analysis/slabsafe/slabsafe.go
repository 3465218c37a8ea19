// Package slabsafe enforces the slab-pool ownership discipline from
// internal/wire/pool.go: a slice obtained from wire.GetSlab or
// wire.EncodePooled (and anything that aliases it — a sub-slice, a
// DecodeInPlace Message whose Payload points into it, an
// unsafe.String over it) must not be used after the matching
// wire.PutSlab, and must not outlive it: returning it past a deferred
// PutSlab, storing it to a field or global that survives the free, or
// capturing it in a goroutine all hand pool-owned memory to code that
// will read it after the pool has recycled (or poisoned) it. The fix
// is always the same: copy before the ownership boundary —
// string(p) and append([]byte(nil), p...) both copy and are
// recognized as safe.
//
// Aliasing is tracked through calls: per-function may-alias summaries
// ("result may alias parameter i") are computed for the package under
// analysis and exported as facts for dependents, with a built-in table
// for the wire package's own API (DecodeInPlace, Reader.Raw) so the
// contract holds across packages. A closure passed directly as a call
// argument runs synchronously and is analyzed inline; only go-statement
// and stored closures are capture escapes.
package slabsafe

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/lint"
)

// Analyzer is the slabsafe pass.
var Analyzer = &lint.Analyzer{
	Name: "slabsafe",
	Doc:  "pooled slabs must not be used or escape after their PutSlab",
	Run:  run,
}

const wirePath = "repro/internal/wire"

// acquireFuncs yield a pool-owned slab the caller must PutSlab.
var acquireFuncs = map[string]bool{
	wirePath + ".GetSlab":      true,
	wirePath + ".EncodePooled": true,
}

const releaseFunc = wirePath + ".PutSlab"

// builtinAlias is the may-alias table for the wire API itself: result
// may alias the given parameter indices (receiver counts as index 0
// on methods). It seeds the summary fixpoint and covers analyses of
// packages loaded without wire's facts.
var builtinAlias = map[string][]int{
	wirePath + ".DecodeInPlace":      {0},
	"(*" + wirePath + ".Reader).Raw": {0},
}

// Summaries is the exported fact: function full name -> parameter
// indices its results may alias.
type Summaries struct {
	Funcs map[string][]int
}

// state bits for one slab on one path.
type state uint8

const (
	live     state = 1 << iota // acquired, PutSlab still owed
	released                   // PutSlab already ran on this path
	deferred                   // PutSlab is deferred to function exit
	stored                     // a reference was stored outside the function
)

type slabInfo struct {
	name     string
	pos      token.Pos // acquisition site
	storePos token.Pos // last escaping store (for the PutSlab report)
}

type env struct {
	vars  map[types.Object]*slabInfo
	state map[*slabInfo]state
}

func newEnv() *env {
	return &env{vars: map[types.Object]*slabInfo{}, state: map[*slabInfo]state{}}
}

func (e *env) clone() *env {
	c := newEnv()
	for k, v := range e.vars {
		c.vars[k] = v
	}
	for k, v := range e.state {
		c.state[k] = v
	}
	return c
}

func (e *env) merge(b *env) {
	for k, v := range b.vars {
		e.vars[k] = v
	}
	for k, v := range b.state {
		e.state[k] |= v
	}
}

type walker struct {
	pass      *lint.Pass
	summaries map[string][]int
	inlined   map[*ast.FuncLit]bool
}

func run(pass *lint.Pass) error {
	w := &walker{
		pass:      pass,
		summaries: computeSummaries(pass),
		inlined:   map[*ast.FuncLit]bool{},
	}
	pass.ExportFact(&Summaries{Funcs: w.summaries})
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				w.walkBody(fd.Body)
			}
		}
		// Closures not inlined above (goroutine bodies, stored callbacks)
		// are analyzed with a fresh environment for their own acquisitions.
		ast.Inspect(f, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok && !w.inlined[fl] {
				w.walkBody(fl.Body)
			}
			return true
		})
	}
	return nil
}

func (w *walker) walkBody(body *ast.BlockStmt) {
	e := newEnv()
	w.stmts(body.List, e)
}

// calleeOf resolves the called function object, if statically known.
func (w *walker) calleeOf(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := w.pass.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := w.pass.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// aliasSummary returns the may-alias parameter indices for a callee:
// intra-package summary, built-in wire table, or an imported fact.
func (w *walker) aliasSummary(fn *types.Func) []int {
	if fn == nil {
		return nil
	}
	name := fn.FullName()
	if s, ok := w.summaries[name]; ok {
		return s
	}
	if s, ok := builtinAlias[name]; ok {
		return s
	}
	if fn.Pkg() != nil && fn.Pkg() != w.pass.Pkg {
		var facts Summaries
		if w.pass.ImportFact(fn.Pkg().Path(), &facts) {
			return facts.Funcs[name]
		}
	}
	return nil
}

// isAcquire reports whether expr is (an alias of) a fresh pool
// acquisition: wire.GetSlab(n), wire.EncodePooled(m), possibly
// sub-sliced at the acquisition site (p := GetSlab(n)[:n]).
func (w *walker) isAcquire(expr ast.Expr) bool {
	switch x := ast.Unparen(expr).(type) {
	case *ast.SliceExpr:
		return w.isAcquire(x.X)
	case *ast.CallExpr:
		if fn := w.calleeOf(x); fn != nil {
			return acquireFuncs[fn.FullName()]
		}
	}
	return false
}

// aliasOf resolves the tracked slab an expression may alias, walking
// through sub-slices, field selections, copy-free conversions, and
// calls with a may-alias summary. Copying operations (string(p),
// append([]byte(nil), p...)) return nil.
func (w *walker) aliasOf(expr ast.Expr, e *env) *slabInfo {
	switch x := ast.Unparen(expr).(type) {
	case *ast.Ident, *ast.IndexExpr, *ast.SelectorExpr:
		// A scalar read (p[0], m.ReqID) copies the value; only
		// reference-carrying types can alias the slab.
		if tv, ok := w.pass.Info.Types[x]; ok && tv.Type != nil && !canAliasRef(tv.Type) {
			return nil
		}
	}
	switch x := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return e.vars[w.pass.Info.Uses[x]]
	case *ast.SliceExpr:
		return w.aliasOf(x.X, e)
	case *ast.IndexExpr:
		return w.aliasOf(x.X, e)
	case *ast.SelectorExpr:
		return w.aliasOf(x.X, e)
	case *ast.StarExpr:
		return w.aliasOf(x.X, e)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			// &p[0] takes the address of slab memory regardless of the
			// element's scalar type.
			if ie, ok := ast.Unparen(x.X).(*ast.IndexExpr); ok {
				return w.aliasOf(ie.X, e)
			}
			return w.aliasOf(x.X, e)
		}
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if info := w.aliasOf(el, e); info != nil {
				return info
			}
		}
	case *ast.CallExpr:
		// Conversions: string(p) and []byte(s) copy; slice-to-slice
		// conversions alias.
		if tv, ok := w.pass.Info.Types[x.Fun]; ok && tv.IsType() {
			if len(x.Args) != 1 {
				return nil
			}
			if isString(tv.Type) || isString(w.pass.Info.Types[x.Args[0]].Type) {
				return nil
			}
			return w.aliasOf(x.Args[0], e)
		}
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" && len(x.Args) > 0 {
			// append aliases its destination; append([]byte(nil), p...)
			// is the canonical copy.
			return w.aliasOf(x.Args[0], e)
		}
		if isUnsafeCall(w.pass.Info, x) {
			// unsafe.String / unsafe.Slice launder the pointer but not
			// the aliasing.
			for _, a := range x.Args {
				if info := w.aliasOf(a, e); info != nil {
					return info
				}
			}
			return nil
		}
		fn := w.calleeOf(x)
		for _, idx := range w.aliasSummary(fn) {
			if arg := w.callOperand(x, fn, idx); arg != nil {
				if info := w.aliasOf(arg, e); info != nil {
					return info
				}
			}
		}
	}
	return nil
}

// callOperand maps a summary parameter index to the call-site
// expression (receiver = index 0 on methods).
func (w *walker) callOperand(call *ast.CallExpr, fn *types.Func, idx int) ast.Expr {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if idx == 0 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				return sel.X
			}
			return nil
		}
		idx--
	}
	if idx < len(call.Args) {
		return call.Args[idx]
	}
	return nil
}

// isUnsafeCall reports a call of an unsafe-package builtin
// (unsafe.String, unsafe.Slice): those resolve to *types.Builtin, not
// *types.Func, so they need a syntactic package check.
func isUnsafeCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "unsafe"
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// releaseArg returns the slab released when call is wire.PutSlab(x).
func (w *walker) releaseArg(call *ast.CallExpr, e *env) (*slabInfo, bool) {
	fn := w.calleeOf(call)
	if fn == nil || fn.FullName() != releaseFunc || len(call.Args) != 1 {
		return nil, false
	}
	return w.aliasOf(call.Args[0], e), true
}

func (w *walker) track(obj types.Object, name string, pos token.Pos, e *env) {
	info := &slabInfo{name: name, pos: pos}
	e.vars[obj] = info
	e.state[info] = live
}

// use reports a read of a slab on a path where PutSlab already ran.
func (w *walker) use(pos token.Pos, info *slabInfo, e *env) {
	if e.state[info]&released != 0 {
		w.pass.Reportf(pos, "use of pooled slab %s after PutSlab (the pool may already have recycled or poisoned it)", info.name)
		// One report per release site is enough; quiet the path.
		e.state[info] &^= released
	}
}

// scanUses reports released-slab reads under n. skip names idents
// already handled by the caller (e.g. the PutSlab operand itself).
// Closures found here are capture sites: FuncLits reaching this
// scanner were not inlined, so captured slabs are treated as stored.
func (w *walker) scanUses(n ast.Node, e *env, skip map[*ast.Ident]bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch t := x.(type) {
		case *ast.FuncLit:
			if w.inlined[t] {
				return false // already walked synchronously with this env
			}
			w.captureEscapes(t, e, "captured by a closure")
			return false
		case *ast.Ident:
			if skip[t] {
				return true
			}
			if info := e.vars[w.pass.Info.Uses[t]]; info != nil {
				w.use(t.Pos(), info, e)
			}
		}
		return true
	})
}

// captureEscapes handles a closure that may outlive this frame: any
// captured slab either escapes its already-scheduled PutSlab (report)
// or is marked stored so a later PutSlab reports the dangling capture.
func (w *walker) captureEscapes(fl *ast.FuncLit, e *env, how string) {
	ast.Inspect(fl.Body, func(y ast.Node) bool {
		id, ok := y.(*ast.Ident)
		if !ok {
			return true
		}
		info := e.vars[w.pass.Info.Uses[id]]
		if info == nil {
			return true
		}
		st := e.state[info]
		if st&(released|deferred) != 0 {
			w.pass.Reportf(id.Pos(), "pooled slab %s %s outlives its PutSlab (copy it before handing it off)", info.name, how)
		} else {
			info.storePos = id.Pos()
			e.state[info] |= stored
		}
		return true
	})
}

// escapeStore handles a write of a slab alias to memory that survives
// the function: a field, a global, a map/slice element, a channel.
func (w *walker) escapeStore(pos token.Pos, info *slabInfo, e *env, what string) {
	st := e.state[info]
	if st&(released|deferred) != 0 {
		w.pass.Reportf(pos, "pooled slab %s stored to %s after its PutSlab is scheduled (the store outlives the free; copy with append([]byte(nil), %s...) instead)", info.name, what, info.name)
		return
	}
	info.storePos = pos
	e.state[info] |= stored
}

// isEscapingLValue reports whether an assignment target survives the
// function frame: a field, a dereference, an index into anything, or
// a package-level variable.
func (w *walker) isEscapingLValue(lhs ast.Expr) bool {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
		return true
	case *ast.Ident:
		obj := w.pass.Info.Uses[x]
		if obj == nil {
			obj = w.pass.Info.Defs[x]
		}
		return obj != nil && obj.Parent() == w.pass.Pkg.Scope()
	}
	return false
}

func lvalueString(lhs ast.Expr) string {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return lvalueString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return lvalueString(x.X) + "[...]"
	case *ast.StarExpr:
		return "*" + lvalueString(x.X)
	}
	return "escaping memory"
}

func (w *walker) stmts(list []ast.Stmt, e *env) bool {
	for _, s := range list {
		if w.stmt(s, e) {
			return true
		}
	}
	return false
}

func (w *walker) stmt(s ast.Stmt, e *env) bool {
	switch st := s.(type) {
	case *ast.AssignStmt:
		w.assign(st, e)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, val := range vs.Values {
					if w.isAcquire(val) && i < len(vs.Names) {
						w.track(w.pass.Info.Defs[vs.Names[i]], vs.Names[i].Name, val.Pos(), e)
						continue
					}
					w.scanCall(val, e)
					w.scanUses(val, e, nil)
				}
			}
		}
	case *ast.ExprStmt:
		call, ok := ast.Unparen(st.X).(*ast.CallExpr)
		if !ok {
			w.scanUses(st.X, e, nil)
			break
		}
		if info, isPut := w.releaseArg(call, e); isPut {
			if info == nil {
				break // untracked operand
			}
			stv := e.state[info]
			switch {
			case stv&released != 0:
				w.pass.Reportf(call.Pos(), "second PutSlab of slab %s on this path (double free; the pool hands the slab to two owners)", info.name)
			case stv&stored != 0:
				w.pass.Reportf(call.Pos(), "PutSlab frees slab %s while the store at an earlier line still references it (the stored slice now points into recycled pool memory)", info.name)
			}
			e.state[info] = (stv &^ (live | stored)) | released
			break
		}
		w.call(call, e)
	case *ast.DeferStmt:
		if info, isPut := w.releaseArg(st.Call, e); isPut {
			if info == nil {
				break
			}
			stv := e.state[info]
			if stv&stored != 0 {
				w.pass.Reportf(st.Pos(), "deferred PutSlab frees slab %s that an earlier store still references (the stored slice dangles after return)", info.name)
			}
			if stv&(released|deferred) != 0 {
				w.pass.Reportf(st.Pos(), "slab %s is already freed on this path; deferring another PutSlab double-frees", info.name)
			}
			e.state[info] = (stv &^ (live | stored)) | deferred
			break
		}
		if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
			// defer func() { wire.PutSlab(p) }(): scan for releases.
			w.inlined[fl] = true
			found := false
			ast.Inspect(fl.Body, func(y ast.Node) bool {
				if c, ok := y.(*ast.CallExpr); ok {
					if info, isPut := w.releaseArg(c, e); isPut && info != nil {
						e.state[info] = (e.state[info] &^ live) | deferred
						found = true
					}
				}
				return true
			})
			if found {
				break
			}
			w.captureEscapes(fl, e, "captured by a deferred closure")
			break
		}
		w.call(st.Call, e)
	case *ast.GoStmt:
		if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
			w.captureEscapes(fl, e, "captured by a goroutine")
		}
		for _, a := range st.Call.Args {
			if info := w.aliasOf(a, e); info != nil {
				w.escapeStore(a.Pos(), info, e, "a goroutine argument")
			}
		}
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			w.scanCall(r, e)
			w.scanUses(r, e, nil)
			if info := w.aliasOf(r, e); info != nil {
				if e.state[info]&deferred != 0 {
					w.pass.Reportf(r.Pos(), "slab-backed memory (%s, acquired from the wire pool) is returned past its deferred PutSlab (the caller reads freed pool memory; copy with string(...) or append([]byte(nil), ...) first)", info.name)
				}
			}
		}
		return true
	case *ast.IfStmt:
		if st.Init != nil {
			w.stmt(st.Init, e)
		}
		w.scanUses(st.Cond, e, nil)
		thenEnv := e.clone()
		thenTerm := w.stmts(st.Body.List, thenEnv)
		var elseEnv *env
		elseTerm := false
		if st.Else != nil {
			elseEnv = e.clone()
			elseTerm = w.stmt(st.Else, elseEnv)
		}
		switch {
		case st.Else == nil:
			if !thenTerm {
				e.merge(thenEnv)
			}
			return false
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			*e = *elseEnv
		case elseTerm:
			*e = *thenEnv
		default:
			*e = *thenEnv
			e.merge(elseEnv)
		}
		return false
	case *ast.BlockStmt:
		return w.stmts(st.List, e)
	case *ast.ForStmt:
		if st.Init != nil {
			w.stmt(st.Init, e)
		}
		w.scanUses(st.Cond, e, nil)
		be := e.clone()
		w.stmts(st.Body.List, be)
		e.merge(be)
		if st.Post != nil {
			w.scanUses(st.Post, e, nil)
		}
		return false
	case *ast.RangeStmt:
		w.scanUses(st.X, e, nil)
		be := e.clone()
		w.stmts(st.Body.List, be)
		e.merge(be)
		return false
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.stmt(st.Init, e)
		}
		w.scanUses(st.Tag, e, nil)
		return w.branches(caseBodies(st.Body), hasDefault(st.Body), e)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			w.stmt(st.Init, e)
		}
		return w.branches(caseBodies(st.Body), hasDefault(st.Body), e)
	case *ast.SelectStmt:
		return w.branches(caseBodies(st.Body), true, e)
	case *ast.BranchStmt:
		return st.Tok == token.BREAK || st.Tok == token.CONTINUE
	case *ast.LabeledStmt:
		return w.stmt(st.Stmt, e)
	case *ast.SendStmt:
		w.scanUses(st.Chan, e, nil)
		w.scanUses(st.Value, e, nil)
		if info := w.aliasOf(st.Value, e); info != nil {
			w.escapeStore(st.Value.Pos(), info, e, "a channel")
		}
	case *ast.IncDecStmt:
		w.scanUses(st.X, e, nil)
	case *ast.EmptyStmt:
	default:
		w.scanUses(s, e, nil)
	}
	if es, ok := s.(*ast.ExprStmt); ok {
		if call, ok := ast.Unparen(es.X).(*ast.CallExpr); ok && terminates(call) {
			return true
		}
	}
	return false
}

// call processes a plain call: closures passed directly run
// synchronously and are walked inline with the current environment;
// other arguments are scanned for released-slab uses.
func (w *walker) call(call *ast.CallExpr, e *env) {
	for _, a := range call.Args {
		if fl, ok := ast.Unparen(a).(*ast.FuncLit); ok {
			w.inlined[fl] = true
			w.stmts(fl.Body.List, e)
			continue
		}
		w.scanUses(a, e, nil)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.scanUses(sel.X, e, nil)
	}
}

// scanCall inlines direct-argument closures found inside an arbitrary
// expression (e.g. a call in a return statement).
func (w *walker) scanCall(expr ast.Expr, e *env) {
	if call, ok := ast.Unparen(expr).(*ast.CallExpr); ok {
		for _, a := range call.Args {
			if fl, ok := ast.Unparen(a).(*ast.FuncLit); ok {
				w.inlined[fl] = true
				w.stmts(fl.Body.List, e)
			}
		}
	}
}

// assign handles acquisition, aliasing, escaping stores, and
// rebinding.
func (w *walker) assign(st *ast.AssignStmt, e *env) {
	if len(st.Lhs) != len(st.Rhs) {
		// Tuple assignment: m, err := wire.DecodeInPlace(p) — the
		// results may alias a tracked slab via the callee's summary.
		if len(st.Rhs) == 1 {
			if info := w.aliasOf(st.Rhs[0], e); info != nil {
				for _, lhs := range st.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
						obj := w.pass.Info.Defs[id]
						if obj == nil {
							obj = w.pass.Info.Uses[id]
						}
						// Only results that can hold a reference to the
						// bytes alias the slab; an error result wraps
						// numbers, not buffers.
						if obj != nil && canHoldBytes(obj.Type()) {
							e.vars[obj] = info
						}
					}
				}
			}
			w.scanCall(st.Rhs[0], e)
			w.scanUses(st.Rhs[0], e, nil)
		}
		return
	}
	for i, rhs := range st.Rhs {
		lhsIdent, _ := ast.Unparen(st.Lhs[i]).(*ast.Ident)
		if w.isAcquire(rhs) {
			w.scanUses(rhs, e, nil)
			if lhsIdent == nil || lhsIdent.Name == "_" {
				continue
			}
			obj := w.pass.Info.Defs[lhsIdent]
			if obj == nil {
				obj = w.pass.Info.Uses[lhsIdent]
			}
			w.track(obj, lhsIdent.Name, rhs.Pos(), e)
			continue
		}
		w.scanCall(rhs, e)
		info := w.aliasOf(rhs, e)
		if info != nil && w.isEscapingLValue(st.Lhs[i]) {
			w.use(rhs.Pos(), info, e)
			w.escapeStore(st.Lhs[i].Pos(), info, e, lvalueString(st.Lhs[i]))
			continue
		}
		if info != nil && lhsIdent != nil && lhsIdent.Name != "_" {
			// q := p[4:] — same underlying slab, shared state.
			obj := w.pass.Info.Defs[lhsIdent]
			if obj == nil {
				obj = w.pass.Info.Uses[lhsIdent]
			}
			w.use(rhs.Pos(), info, e)
			e.vars[obj] = info
			continue
		}
		if lhsIdent != nil {
			// Rebinding a tracked name to an untracked value.
			if obj := w.pass.Info.Uses[lhsIdent]; obj != nil {
				delete(e.vars, obj)
			}
		}
		w.scanUses(rhs, e, nil)
		w.scanUses(st.Lhs[i], e, nil)
	}
}

// canAliasRef reports whether a value of type t can carry a reference
// to slab memory: slices, pointers, structs, interfaces, funcs —
// and strings, which alias only via unsafe.String (safe conversions
// are recognized as copies before this check).
func canAliasRef(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() == types.UnsafePointer || u.Info()&types.IsString != 0
	case *types.Slice, *types.Pointer, *types.Struct, *types.Interface, *types.Map, *types.Chan, *types.Array, *types.Signature:
		return true
	}
	return false
}

// canHoldBytes is the stricter filter for binding tuple results: a
// decode result struct or slice may point into the slab; an error or
// other interface result does not.
func canHoldBytes(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() == types.UnsafePointer || u.Info()&types.IsString != 0
	case *types.Slice, *types.Pointer, *types.Struct, *types.Array:
		return true
	}
	return false
}

func (w *walker) branches(bodies [][]ast.Stmt, exhaustive bool, e *env) bool {
	if len(bodies) == 0 {
		return false
	}
	allTerm := true
	merged := newEnv()
	any := false
	for _, b := range bodies {
		be := e.clone()
		if !w.stmts(b, be) {
			allTerm = false
			merged.merge(be)
			any = true
		}
	}
	if exhaustive && allTerm {
		return true
	}
	if any {
		if exhaustive {
			*e = *merged
		} else {
			e.merge(merged)
		}
	}
	return false
}

func caseBodies(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, c := range body.List {
		switch cc := c.(type) {
		case *ast.CaseClause:
			out = append(out, cc.Body)
		case *ast.CommClause:
			out = append(out, cc.Body)
		}
	}
	return out
}

func hasDefault(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

func terminates(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Fatal", "Fatalf", "Exit", "Goexit", "fatalf", "fatal":
			return true
		}
	}
	return false
}

// computeSummaries derives, for each function declared in this
// package, which parameters its results may alias. Flow-insensitive
// taint to a small fixpoint; seeds from the built-in wire table and
// imported facts via aliasParamsSummary.
func computeSummaries(pass *lint.Pass) map[string][]int {
	out := map[string][]int{}
	type fnDecl struct {
		fd   *ast.FuncDecl
		obj  *types.Func
		name string
	}
	var fns []fnDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				fns = append(fns, fnDecl{fd, obj, obj.FullName()})
			}
		}
	}
	sc := &summaryComputer{pass: pass, out: out}
	for round := 0; round < 3; round++ {
		for _, fn := range fns {
			s := sc.summarize(fn.fd)
			if len(s) > 0 {
				out[fn.name] = s
			}
		}
	}
	return out
}

type summaryComputer struct {
	pass *lint.Pass
	out  map[string][]int
}

func (sc *summaryComputer) lookup(fn *types.Func) []int {
	if fn == nil {
		return nil
	}
	name := fn.FullName()
	if s, ok := sc.out[name]; ok {
		return s
	}
	return builtinAlias[name]
}

// summarize computes the may-alias parameter set of one function's
// results. Parameter indexing: receiver first, then parameters.
func (sc *summaryComputer) summarize(fd *ast.FuncDecl) []int {
	paramIdx := map[types.Object]int{}
	n := 0
	if fd.Recv != nil {
		for _, fld := range fd.Recv.List {
			for _, nm := range fld.Names {
				paramIdx[sc.pass.Info.Defs[nm]] = n
			}
			n++
		}
	}
	for _, fld := range fd.Type.Params.List {
		for _, nm := range fld.Names {
			paramIdx[sc.pass.Info.Defs[nm]] = n
			n++
		}
		if len(fld.Names) == 0 {
			n++
		}
	}
	taint := map[types.Object]map[int]bool{}
	aliasParams := func(e ast.Expr) map[int]bool { return sc.aliasParams(e, paramIdx, taint) }
	for round := 0; round < 3; round++ {
		ast.Inspect(fd.Body, func(x ast.Node) bool {
			as, ok := x.(*ast.AssignStmt)
			if !ok {
				return true
			}
			if len(as.Lhs) != len(as.Rhs) && len(as.Rhs) == 1 {
				t := aliasParams(as.Rhs[0])
				for _, lhs := range as.Lhs {
					sc.taintLValue(lhs, t, taint)
				}
				return true
			}
			for i := range as.Lhs {
				if i < len(as.Rhs) {
					sc.taintLValue(as.Lhs[i], aliasParams(as.Rhs[i]), taint)
				}
			}
			return true
		})
	}
	res := map[int]bool{}
	ast.Inspect(fd.Body, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false // closure returns are not this function's returns
		}
		ret, ok := x.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, r := range ret.Results {
			for k := range aliasParams(r) {
				res[k] = true
			}
		}
		return true
	})
	var s []int
	for k := range res {
		s = append(s, k)
	}
	for i := 0; i < len(s); i++ { // tiny insertion sort; determinism for facts
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s
}

// taintLValue merges taint into the target of an assignment: plain
// locals, and fields of locals (c.Key = x taints c).
func (sc *summaryComputer) taintLValue(lhs ast.Expr, t map[int]bool, taint map[types.Object]map[int]bool) {
	if len(t) == 0 {
		return
	}
	var id *ast.Ident
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		if base, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			id = base
		}
	}
	if id == nil || id.Name == "_" {
		return
	}
	obj := sc.pass.Info.Defs[id]
	if obj == nil {
		obj = sc.pass.Info.Uses[id]
	}
	if obj == nil {
		return
	}
	if taint[obj] == nil {
		taint[obj] = map[int]bool{}
	}
	for k := range t {
		taint[obj][k] = true
	}
}

func (sc *summaryComputer) aliasParams(e ast.Expr, paramIdx map[types.Object]int, taint map[types.Object]map[int]bool) map[int]bool {
	out := map[int]bool{}
	var walk func(ast.Expr)
	walk = func(e ast.Expr) {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident, *ast.IndexExpr, *ast.SelectorExpr:
			// Scalar reads copy; they cannot carry the alias.
			if tv, ok := sc.pass.Info.Types[x]; ok && tv.Type != nil && !canAliasRef(tv.Type) {
				return
			}
		}
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := sc.pass.Info.Uses[x]
			if obj == nil {
				obj = sc.pass.Info.Defs[x]
			}
			if obj == nil {
				return
			}
			if idx, ok := paramIdx[obj]; ok {
				out[idx] = true
			}
			for k := range taint[obj] {
				out[k] = true
			}
		case *ast.SliceExpr:
			walk(x.X)
		case *ast.IndexExpr:
			walk(x.X)
		case *ast.SelectorExpr:
			walk(x.X)
		case *ast.StarExpr:
			walk(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if ie, ok := ast.Unparen(x.X).(*ast.IndexExpr); ok {
					walk(ie.X)
				} else {
					walk(x.X)
				}
			}
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				walk(el)
			}
		case *ast.CallExpr:
			if tv, ok := sc.pass.Info.Types[x.Fun]; ok && tv.IsType() {
				if len(x.Args) == 1 && !isString(tv.Type) && !isString(sc.pass.Info.Types[x.Args[0]].Type) {
					walk(x.Args[0])
				}
				return
			}
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" && len(x.Args) > 0 {
				walk(x.Args[0])
				return
			}
			var fn *types.Func
			switch fun := ast.Unparen(x.Fun).(type) {
			case *ast.Ident:
				fn, _ = sc.pass.Info.Uses[fun].(*types.Func)
			case *ast.SelectorExpr:
				fn, _ = sc.pass.Info.Uses[fun.Sel].(*types.Func)
			}
			if isUnsafeCall(sc.pass.Info, x) {
				for _, a := range x.Args {
					walk(a)
				}
				return
			}
			for _, idx := range sc.lookup(fn) {
				recvShift := 0
				if s, ok := fn.Type().(*types.Signature); ok && s.Recv() != nil {
					recvShift = 1
				}
				if recvShift == 1 && idx == 0 {
					if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
						walk(sel.X)
					}
					continue
				}
				ai := idx - recvShift
				if ai >= 0 && ai < len(x.Args) {
					walk(x.Args[ai])
				}
			}
		}
	}
	walk(e)
	return out
}
