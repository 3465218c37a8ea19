// Package boundeddecode enforces the wire-decoding invariants: inside
// internal/wire, any indexing or slicing of a payload that arrived
// over the network (a []byte parameter, or a []byte reached through a
// parameter such as a Reader's buffer) must be preceded by a length
// guard — a len/cap inspection of that same buffer, a range over it,
// or a call to an in-package guard helper like Reader.need — so a
// corrupt or hostile frame can never index out of bounds. And every
// exported Decode*/Read* entry point must be exercised by a Fuzz*
// target in the package's tests: the bounds discipline is only as good
// as the adversarial inputs thrown at it.
package boundeddecode

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/analysis/lint"
)

const wirePath = "repro/internal/wire"

// Analyzer is the boundeddecode pass.
var Analyzer = &lint.Analyzer{
	Name: "boundeddecode",
	Doc:  "wire payload indexing must be length-guarded; exported decoders must have fuzz targets",
	Run:  run,
}

func run(pass *lint.Pass) error {
	if path := pass.Pkg.Path(); path != wirePath && !strings.HasPrefix(path, "testdata/") {
		return nil
	}
	guardFuncs := findGuardFuncs(pass)
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd, guardFuncs)
			}
		}
	}
	fuzzCoverage(pass)
	return nil
}

// findGuardFuncs returns in-package bool-returning functions whose
// body length-checks a []byte — calling one counts as a guard for the
// value it receives (Reader.need is the canonical case).
func findGuardFuncs(pass *lint.Pass) map[*types.Func]bool {
	out := map[*types.Func]bool{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := obj.Type().(*types.Signature)
			if sig.Results().Len() != 1 || !isBool(sig.Results().At(0).Type()) {
				continue
			}
			found := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || !isComparison(be.Op) {
					return true
				}
				if containsByteLen(pass, be.X) || containsByteLen(pass, be.Y) {
					found = true
				}
				return !found
			})
			if found {
				out[obj] = true
			}
		}
	}
	return out
}

func isBool(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Bool
}

func isComparison(op token.Token) bool {
	switch op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
		return true
	}
	return false
}

func containsByteLen(pass *lint.Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
			if isByteSlice(pass.Info.Types[call.Args[0]].Type) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// checkFunc verifies every payload index/slice in one function is
// preceded by a guard on the same origin.
func checkFunc(pass *lint.Pass, fd *ast.FuncDecl, guardFuncs map[*types.Func]bool) {
	params := map[types.Object]bool{}
	if fd.Recv != nil {
		for _, fld := range fd.Recv.List {
			for _, n := range fld.Names {
				params[pass.Info.Defs[n]] = true
			}
		}
	}
	for _, fld := range fd.Type.Params.List {
		for _, n := range fld.Names {
			params[pass.Info.Defs[n]] = true
		}
	}

	// derived: local -> the parameter its bytes come from.
	derived := map[types.Object]types.Object{}
	resolve := func(e ast.Expr) types.Object { return origin(pass, e, params, derived) }
	for i := 0; i < 2; i++ { // two rounds: defs can chain
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for j, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Info.Defs[id]
				if obj == nil {
					obj = pass.Info.Uses[id]
				}
				if obj == nil {
					continue
				}
				if o := resolve(as.Rhs[j]); o != nil {
					derived[obj] = o
				}
			}
			return true
		})
	}

	type event struct {
		pos    token.Pos
		origin types.Object
	}
	var guards, uses []event
	var useExprs []ast.Expr

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			// len(p) / cap(p) anywhere counts as a guard event.
			if id, ok := x.Fun.(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") && len(x.Args) == 1 {
				if o := resolve(x.Args[0]); o != nil {
					guards = append(guards, event{x.Pos(), o})
				}
				return true
			}
			// A call to a guard helper guards its receiver and args.
			var callee *types.Func
			switch fun := x.Fun.(type) {
			case *ast.Ident:
				callee, _ = pass.Info.Uses[fun].(*types.Func)
			case *ast.SelectorExpr:
				callee, _ = pass.Info.Uses[fun.Sel].(*types.Func)
				if guardFuncs[callee] {
					if o := resolve(fun.X); o != nil {
						guards = append(guards, event{x.Pos(), o})
					}
				}
			}
			if guardFuncs[callee] {
				for _, a := range x.Args {
					if o := resolve(a); o != nil {
						guards = append(guards, event{x.Pos(), o})
					}
				}
			}
		case *ast.RangeStmt:
			// for i := range p bounds i by len(p).
			if o := resolve(x.X); o != nil {
				guards = append(guards, event{x.Pos(), o})
			}
		case *ast.IndexExpr:
			if isByteSlice(pass.Info.Types[x.X].Type) {
				if o := resolve(x.X); o != nil {
					uses = append(uses, event{x.Pos(), o})
					useExprs = append(useExprs, x.X)
				}
			}
		case *ast.SliceExpr:
			if isByteSlice(pass.Info.Types[x.X].Type) {
				if o := resolve(x.X); o != nil {
					uses = append(uses, event{x.Pos(), o})
					useExprs = append(useExprs, x.X)
				}
			}
		}
		return true
	})

	for i, u := range uses {
		ok := false
		for _, g := range guards {
			if g.origin == u.origin && g.pos < u.pos {
				ok = true
				break
			}
		}
		if !ok {
			pass.Reportf(u.pos,
				"wire payload %s indexed without a preceding length guard (check len(%s) before indexing; decoder input is attacker-controlled)",
				exprString(useExprs[i]), u.origin.Name())
		}
	}
}

// origin resolves the parameter an expression's bytes flow from:
// params themselves, fields reached through a parameter/receiver
// (r.b), sub-slices, and locals recorded in derived.
func origin(pass *lint.Pass, e ast.Expr, params map[types.Object]bool, derived map[types.Object]types.Object) types.Object {
	switch x := e.(type) {
	case *ast.Ident:
		obj := pass.Info.Uses[x]
		if obj == nil {
			obj = pass.Info.Defs[x]
		}
		if obj == nil {
			return nil
		}
		if params[obj] {
			return obj
		}
		return derived[obj]
	case *ast.SelectorExpr:
		// r.b: the payload reached through the receiver.
		return origin(pass, x.X, params, derived)
	case *ast.IndexExpr:
		return origin(pass, x.X, params, derived)
	case *ast.SliceExpr:
		return origin(pass, x.X, params, derived)
	case *ast.ParenExpr:
		return origin(pass, x.X, params, derived)
	case *ast.StarExpr:
		return origin(pass, x.X, params, derived)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return origin(pass, x.X, params, derived)
		}
	}
	return nil
}

func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.SliceExpr:
		return exprString(x.X) + "[...]"
	}
	return "payload"
}

var decoderName = regexp.MustCompile(`^(Decode|Read)`)

// fuzzCoverage reports exported Decode*/Read* functions that no Fuzz*
// target references.
func fuzzCoverage(pass *lint.Pass) {
	type decl struct {
		fn  *types.Func
		pos token.Pos
	}
	var decoders []decl
	anyTest := false
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			anyTest = true
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fd.Name.IsExported() || !decoderName.MatchString(fd.Name.Name) {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				decoders = append(decoders, decl{fn, fd.Name.Pos()})
			}
		}
	}
	// A unit with no test files at all is go vet's plain compile unit;
	// the fuzz rule runs on the test variant (and in the direct driver,
	// which always loads it).
	if len(decoders) == 0 || !anyTest {
		return
	}
	covered := map[*types.Func]bool{}
	for _, f := range pass.Files {
		if !pass.IsTestFile(f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !strings.HasPrefix(fd.Name.Name, "Fuzz") {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := pass.Info.Uses[id].(*types.Func); ok {
						covered[fn] = true
					}
				}
				return true
			})
		}
	}
	for _, d := range decoders {
		if !covered[d.fn] {
			pass.Reportf(d.pos,
				"exported decoder %s has no Fuzz target exercising it (add a Fuzz* that feeds it adversarial input)",
				d.fn.Name())
		}
	}
}
