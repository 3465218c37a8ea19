// Package viewclose enforces the pinned-view lifetime discipline from
// view.go: every View/ViewRW/RowView/RowViewRW acquisition must reach
// a Release on every path out of the acquiring function (a deferred
// Release or a dominating call), and a view must not be used after it
// is Released. A missing Release leaks the span's DMM pin and — for
// RW views — leaves the object's mutation window open, parking every
// peer that fetches it; a use after Release is the runtime fatal the
// static check catches one PR earlier.
//
// The analysis is structural and path-sensitive over Go's structured
// control flow: each branch of if/switch/select is walked with its own
// view-state environment and the environments are merged, so "released
// in the then-branch only" is reported at the acquisition. Views that
// escape the function (returned, stored, passed to another function)
// transfer ownership and are not reported — the discipline is enforced
// where the view is local, which is every hot loop in the Fig. 8 apps.
package viewclose

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/lint"
)

// Analyzer is the viewclose pass.
var Analyzer = &lint.Analyzer{
	Name: "viewclose",
	Doc:  "pinned views must be Released on every path and never used after Release",
	Run:  run,
}

var acquireNames = map[string]bool{
	"View": true, "ViewRW": true, "RowView": true, "RowViewRW": true,
}

// state is a bitmask: after branch merges a view can be live on one
// path and released on another.
type state uint8

const (
	live     state = 1 << iota // acquired, Release still owed
	released                   // Release already ran
	deferred                   // Release is deferred to function exit
	escaped                    // ownership left the function
)

type viewInfo struct {
	name     string
	pos      token.Pos
	reported bool // leak reported (once per acquisition)
}

type env struct {
	vars  map[types.Object]*viewInfo
	state map[*viewInfo]state
}

func newEnv() *env {
	return &env{vars: map[types.Object]*viewInfo{}, state: map[*viewInfo]state{}}
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

// merge folds a branch environment back into e (both branches
// reachable): states union bitwise, bindings union.
func (e *env) merge(b *env) {
	for k, v := range b.vars {
		e.vars[k] = v
	}
	for k, v := range b.state {
		e.state[k] |= v
	}
}

type loopScope struct {
	locals map[*viewInfo]bool
}

type walker struct {
	pass  *lint.Pass
	infos []*viewInfo
	loops []*loopScope
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body == nil {
				return true
			}
			w := &walker{pass: pass}
			e := newEnv()
			terminated := w.stmts(body.List, e)
			if !terminated {
				w.exitCheck(e, body.End())
			}
			return true // recurse: nested FuncLits analyzed on their own too
		})
	}
	return nil
}

// isAcquire reports whether call acquires a pinned view: a method call
// named like an acquisition whose result type carries a Release method.
func (w *walker) isAcquire(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !acquireNames[sel.Sel.Name] {
		return false
	}
	if s := w.pass.Info.Selections[sel]; s == nil || s.Kind() != types.MethodVal {
		return false
	}
	tv, ok := w.pass.Info.Types[call]
	if !ok {
		return false
	}
	t := tv.Type
	if tuple, ok := t.(*types.Tuple); ok {
		if tuple.Len() == 0 {
			return false
		}
		t = tuple.At(0).Type()
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, w.pass.Pkg, "Release")
	_, isFunc := obj.(*types.Func)
	return isFunc
}

// releaseOf returns the tracked info when call is `v.Release()` on a
// tracked view variable.
func (w *walker) releaseOf(call *ast.CallExpr, e *env) (*viewInfo, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" || len(call.Args) != 0 {
		return nil, false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil, false
	}
	obj := w.pass.Info.Uses[id]
	info := e.vars[obj]
	return info, info != nil
}

// aliasOf returns the tracked info when expr is a tracked variable or
// a Slice(...) of one (Slice shares the parent's release state).
func (w *walker) aliasOf(expr ast.Expr, e *env) *viewInfo {
	switch x := expr.(type) {
	case *ast.Ident:
		return e.vars[w.pass.Info.Uses[x]]
	case *ast.CallExpr:
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Slice" {
			if id, ok := sel.X.(*ast.Ident); ok {
				return e.vars[w.pass.Info.Uses[id]]
			}
		}
	case *ast.ParenExpr:
		return w.aliasOf(x.X, e)
	}
	return nil
}

func (w *walker) track(obj types.Object, name string, pos token.Pos, e *env) {
	if prev := e.vars[obj]; prev != nil && e.state[prev]&live != 0 && e.state[prev]&(deferred|escaped) == 0 {
		w.leak(prev, pos, "reassigned before Release")
	}
	info := &viewInfo{name: name, pos: pos}
	w.infos = append(w.infos, info)
	e.vars[obj] = info
	e.state[info] = live
	if len(w.loops) > 0 {
		w.loops[len(w.loops)-1].locals[info] = true
	}
}

func (w *walker) leak(info *viewInfo, pos token.Pos, how string) {
	if info.reported {
		return
	}
	info.reported = true
	w.pass.Reportf(info.pos, "view %s acquired here is %s (leaks its pin; an open RW view parks peers on its mutation window)", info.name, how)
	_ = pos
}

// exitCheck fires at every function exit: anything still owing a
// Release on this path is a leak.
func (w *walker) exitCheck(e *env, pos token.Pos) {
	for info, st := range e.state {
		if st&live != 0 && st&(deferred|escaped) == 0 {
			w.leak(info, pos, "not Released on every path")
		}
	}
}

// loopExitCheck fires at break/continue/end-of-body for views acquired
// inside the loop body.
func (w *walker) loopExitCheck(e *env, pos token.Pos) {
	if len(w.loops) == 0 {
		return
	}
	for info := range w.loops[len(w.loops)-1].locals {
		st, ok := e.state[info]
		if ok && st&live != 0 && st&(deferred|escaped) == 0 {
			w.leak(info, pos, "not Released by the end of the loop iteration")
		}
	}
}

// scanUses reports uses of released views and marks views captured by
// closures or passed away as escaped. skip is the receiver ident of a
// Release/alias operation already handled by the caller.
func (w *walker) scanUses(n ast.Node, e *env, skip map[*ast.Ident]bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch t := x.(type) {
		case *ast.FuncLit:
			// Capture by a closure: the view may outlive this scope's
			// reasoning; treat every tracked view referenced inside as
			// escaped (deferred Release closures are handled earlier).
			ast.Inspect(t.Body, func(y ast.Node) bool {
				if id, ok := y.(*ast.Ident); ok {
					if info := e.vars[w.pass.Info.Uses[id]]; info != nil {
						e.state[info] |= escaped
					}
				}
				return true
			})
			return false
		case *ast.Ident:
			if skip[t] {
				return true
			}
			info := e.vars[w.pass.Info.Uses[t]]
			if info == nil {
				return true
			}
			st := e.state[info]
			if st&released != 0 {
				w.pass.Reportf(t.Pos(), "use of view %s after Release (released views fatal at runtime; hoist the use above the Release)", info.name)
			}
		}
		return true
	})
}

// escapeTargets marks tracked views appearing as call arguments (not
// method receivers), return values, or stored values as escaped.
func (w *walker) markEscape(expr ast.Expr, e *env) {
	if info := w.aliasOf(expr, e); info != nil {
		e.state[info] |= escaped
	}
}

// stmts walks a statement list; the return value reports whether every
// path through it terminates (return/panic/fatal).
func (w *walker) stmts(list []ast.Stmt, e *env) bool {
	for i, s := range list {
		if w.stmt(s, e) {
			_ = i
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
					w.scanUses(val, e, nil)
					if call, ok := val.(*ast.CallExpr); ok && w.isAcquire(call) && i < len(vs.Names) {
						w.track(w.pass.Info.Defs[vs.Names[i]], vs.Names[i].Name, call.Pos(), e)
					}
				}
			}
		}
	case *ast.ExprStmt:
		call, ok := st.X.(*ast.CallExpr)
		if !ok {
			w.scanUses(st.X, e, nil)
			break
		}
		if info, ok := w.releaseOf(call, e); ok {
			recv := call.Fun.(*ast.SelectorExpr).X.(*ast.Ident)
			stt := e.state[info]
			switch {
			case stt&released != 0:
				w.pass.Reportf(call.Pos(), "second Release of view %s (Release through any alias releases the span once; double Release is a runtime fatal)", info.name)
			case stt&deferred != 0:
				w.pass.Reportf(call.Pos(), "view %s already has a deferred Release; this call double-releases at function exit", info.name)
			}
			e.state[info] = (stt &^ live) | released
			w.scanUses(call, e, map[*ast.Ident]bool{recv: true})
			break
		}
		if w.isAcquire(call) {
			// p.View(...).Release() chains are fine; anything else
			// drops the only handle to the pin.
			w.pass.Reportf(call.Pos(), "acquired view is discarded without Release (bind it and Release it, or chain .Release())")
			break
		}
		// p.View(...).Release() : ExprStmt whose call is Release on an
		// acquire result — allowed, nothing tracked.
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Release" {
			if inner, ok := sel.X.(*ast.CallExpr); ok && w.isAcquire(inner) {
				break
			}
		}
		w.args(call, e)
		w.scanUses(call, e, nil)
	case *ast.DeferStmt:
		if info, ok := w.releaseOf(st.Call, e); ok {
			stt := e.state[info]
			if stt&(deferred|released) != 0 {
				w.pass.Reportf(st.Pos(), "view %s is already Released on this path; deferring another Release double-releases", info.name)
			}
			e.state[info] = (stt &^ live) | deferred
			break
		}
		// defer func() { v.Release() }() — scan the closure for
		// Release calls on tracked views.
		if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
			found := false
			ast.Inspect(fl.Body, func(y ast.Node) bool {
				if call, ok := y.(*ast.CallExpr); ok {
					if info, ok := w.releaseOf(call, e); ok {
						e.state[info] = (e.state[info] &^ live) | deferred
						found = true
					}
				}
				return true
			})
			if found {
				break
			}
		}
		w.args(st.Call, e)
		w.scanUses(st.Call, e, nil)
	case *ast.GoStmt:
		w.scanUses(st.Call, e, nil) // closures inside mark escapes
		w.args(st.Call, e)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			w.scanUses(r, e, nil)
			w.markEscape(r, e)
		}
		w.exitCheck(e, st.Pos())
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
		w.loopBody(st.Body, e)
		if st.Post != nil {
			w.scanUses(st.Post, e, nil)
		}
		// A `for {}` with no cond and no break... treat as possibly
		// terminating normally (conservative: not terminated).
		return false
	case *ast.RangeStmt:
		w.scanUses(st.X, e, nil)
		w.loopBody(st.Body, e)
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
		w.scanUses(st.Assign, e, nil)
		return w.branches(caseBodies(st.Body), hasDefault(st.Body), e)
	case *ast.SelectStmt:
		return w.branches(caseBodies(st.Body), true, e)
	case *ast.BranchStmt:
		switch st.Tok {
		case token.BREAK, token.CONTINUE:
			w.loopExitCheck(e, st.Pos())
			return true
		case token.GOTO:
			// Unstructured flow: stop reasoning about this function's
			// views rather than report unsoundly.
			for info := range e.state {
				e.state[info] |= escaped
			}
			return false
		}
		return false
	case *ast.LabeledStmt:
		return w.stmt(st.Stmt, e)
	case *ast.SendStmt:
		w.scanUses(st.Chan, e, nil)
		w.scanUses(st.Value, e, nil)
		w.markEscape(st.Value, e)
	case *ast.IncDecStmt:
		w.scanUses(st.X, e, nil)
	case *ast.EmptyStmt:
	default:
		w.scanUses(s, e, nil)
	}
	// A call to panic/fatal ends the path.
	if es, ok := s.(*ast.ExprStmt); ok {
		if call, ok := es.X.(*ast.CallExpr); ok && w.terminates(call) {
			return true
		}
	}
	return false
}

// assign handles tracking, aliasing and escapes in one assignment.
func (w *walker) assign(st *ast.AssignStmt, e *env) {
	skip := map[*ast.Ident]bool{}
	if len(st.Lhs) == len(st.Rhs) {
		for i, rhs := range st.Rhs {
			lhsIdent, _ := st.Lhs[i].(*ast.Ident)
			if call, ok := rhs.(*ast.CallExpr); ok && w.isAcquire(call) {
				w.scanUses(call, e, nil)
				if lhsIdent == nil || lhsIdent.Name == "_" {
					w.pass.Reportf(call.Pos(), "acquired view is discarded without Release (bind it and Release it)")
					continue
				}
				obj := w.pass.Info.Defs[lhsIdent]
				if obj == nil {
					obj = w.pass.Info.Uses[lhsIdent]
				}
				w.track(obj, lhsIdent.Name, call.Pos(), e)
				skip[lhsIdent] = true
				continue
			}
			if info := w.aliasOf(rhs, e); info != nil && lhsIdent != nil && lhsIdent.Name != "_" {
				// w := v  or  w := v.Slice(a, b): shared release state.
				obj := w.pass.Info.Defs[lhsIdent]
				if obj == nil {
					obj = w.pass.Info.Uses[lhsIdent]
				}
				e.vars[obj] = info
				skip[lhsIdent] = true
				continue
			}
			// Storing a tracked view into a structure transfers
			// ownership out of this function's reasoning.
			if lhsIdent == nil {
				w.markEscape(rhs, e)
			} else if obj := w.pass.Info.Uses[lhsIdent]; obj != nil {
				// Rebinding a tracked variable to a non-view value.
				if prev := e.vars[obj]; prev != nil {
					if e.state[prev]&live != 0 && e.state[prev]&(deferred|escaped|released) == 0 {
						w.leak(prev, st.Pos(), "reassigned before Release")
					}
					delete(e.vars, obj)
				}
			}
		}
		for _, lhs := range st.Lhs {
			w.scanUses(lhs, e, skip)
		}
		for _, rhs := range st.Rhs {
			w.scanUses(rhs, e, skip)
		}
		return
	}
	// Tuple assign from one call: no view acquisitions return tuples;
	// just scan.
	for _, rhs := range st.Rhs {
		w.scanUses(rhs, e, nil)
	}
	for _, lhs := range st.Lhs {
		w.scanUses(lhs, e, nil)
	}
}

// args marks tracked views passed as plain call arguments as escaped
// (ownership transfer to the callee).
func (w *walker) args(call *ast.CallExpr, e *env) {
	for _, a := range call.Args {
		w.markEscape(a, e)
	}
}

// loopBody walks a loop body in its own loop scope, then folds the
// body's effects back conservatively (zero-iteration paths exist).
func (w *walker) loopBody(body *ast.BlockStmt, e *env) {
	w.loops = append(w.loops, &loopScope{locals: map[*viewInfo]bool{}})
	be := e.clone()
	terminated := w.stmts(body.List, be)
	if !terminated {
		w.loopExitCheck(be, body.End())
	}
	scope := w.loops[len(w.loops)-1]
	w.loops = w.loops[:len(w.loops)-1]
	// Fold non-local state changes back (a view released inside the
	// loop is released on some paths only — the loop may run zero
	// times).
	for info, stv := range be.state {
		if !scope.locals[info] {
			e.state[info] |= stv
		}
	}
}

// branches walks each case body as an alternative; exhaustive reports
// whether one of the branches always runs (default present / select).
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

// terminates reports calls that end the path: panic, os.Exit,
// log.Fatal*, the runtime's fatalf helpers, testing fatals.
func (w *walker) terminates(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		switch name {
		case "Fatal", "Fatalf", "Exit", "Goexit", "fatalf", "fatal":
			return true
		}
	}
	return false
}
