// Package mustcheck enforces the transport error discipline: the
// error results of Send, Flush, Drain and Close on anything that is (or
// implements) transport.Endpoint are never discarded. A dropped Send
// error silently strands a protocol peer; a dropped Drain or Close on
// a node-exit path lets a rank exit before its last replies are acked
// (the exact failure class the PR 4 flush-before-exit work closed).
// Discarding means: calling as a bare statement, assigning to blank,
// or calling via go/defer (which throws the error away by construction
// — wrap in a closure that handles it instead).
package mustcheck

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/lint"
)

const transportPath = "repro/internal/transport"

var watched = map[string]bool{"Send": true, "Flush": true, "Drain": true, "Close": true}

// Analyzer is the mustcheck pass.
var Analyzer = &lint.Analyzer{
	Name: "mustcheck",
	Doc:  "Send/Flush/Drain/Close errors on transport.Endpoint values must not be discarded",
	Run:  run,
}

func run(pass *lint.Pass) error {
	iface := endpointInterface(pass)
	if iface == nil {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					report(pass, iface, call, "its error is discarded")
				}
			case *ast.DeferStmt:
				report(pass, iface, s.Call, "defer discards its error — wrap it in a closure that handles the error")
			case *ast.GoStmt:
				report(pass, iface, s.Call, "go discards its error — handle it inside the goroutine")
			case *ast.AssignStmt:
				if len(s.Lhs) != len(s.Rhs) {
					return true
				}
				for i, rhs := range s.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok {
						continue
					}
					if id, ok := s.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						report(pass, iface, call, "assigning it to _ discards its error")
					}
				}
			}
			return true
		})
	}
	return nil
}

// report flags call if it is Send/Flush/Drain/Close on an Endpoint-shaped
// receiver returning a single error.
func report(pass *lint.Pass, iface *types.Interface, call *ast.CallExpr, how string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !watched[sel.Sel.Name] {
		return
	}
	selection := pass.Info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return
	}
	recv := selection.Recv()
	if !isEndpoint(recv, iface) {
		return
	}
	// Only single-error-result methods matter (Recv returns a tuple).
	sig, ok := selection.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 || !isError(sig.Results().At(0).Type()) {
		return
	}
	pass.Reportf(call.Pos(), "(%s).%s called but %s (endpoint Send/Flush/Drain/Close errors must be handled or surfaced)",
		recvName(recv), sel.Sel.Name, how)
}

func isEndpoint(t types.Type, iface *types.Interface) bool {
	if types.Implements(t, iface) {
		return true
	}
	if p, ok := t.Underlying().(*types.Pointer); ok && types.Implements(p.Elem(), iface) {
		return true
	}
	return types.Implements(types.NewPointer(t), iface)
}

func isError(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		if n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == transportPath {
			return "transport." + n.Obj().Name()
		}
		return n.Obj().Name()
	}
	return t.String()
}

func endpointInterface(pass *lint.Pass) *types.Interface {
	var tp *types.Package
	if pass.Pkg.Path() == transportPath {
		tp = pass.Pkg
	} else {
		seen := map[*types.Package]bool{}
		var find func(p *types.Package) *types.Package
		find = func(p *types.Package) *types.Package {
			for _, imp := range p.Imports() {
				if seen[imp] {
					continue
				}
				seen[imp] = true
				if imp.Path() == transportPath {
					return imp
				}
				if r := find(imp); r != nil {
					return r
				}
			}
			return nil
		}
		tp = find(pass.Pkg)
	}
	if tp == nil {
		return nil
	}
	obj := tp.Scope().Lookup("Endpoint")
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}
