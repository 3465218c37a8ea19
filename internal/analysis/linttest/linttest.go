// Package linttest runs lint analyzers over golden testdata packages,
// in the style of golang.org/x/tools/go/analysis/analysistest: every
// expected diagnostic is declared in the source itself with a
//
//	// want `regexp`
//
// trailing comment (several per line allowed), and the test fails on
// any mismatch in either direction — a missing diagnostic and an
// unexpected one are both errors. Testdata packages may import real
// module packages (repro, repro/internal/wire, ...), so goldens
// exercise the analyzers against the actual API the invariants govern,
// with the facts lotsvet would have derived from those packages.
package linttest

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"regexp"
	"sync"
	"testing"

	"repro/internal/analysis/lint"
)

var (
	loaderOnce sync.Once
	loader     *lint.Loader
	loaderErr  error
)

// sharedLoader lists the whole module once per test binary; every
// golden package reuses the index (and its export data).
func sharedLoader(t *testing.T) *lint.Loader {
	t.Helper()
	loaderOnce.Do(func() {
		wd, err := os.Getwd()
		if err != nil {
			loaderErr = err
			return
		}
		root, err := lint.FindModRoot(wd)
		if err != nil {
			loaderErr = err
			return
		}
		loader, loaderErr = lint.NewLoader(root, "./...")
	})
	if loaderErr != nil {
		t.Fatalf("linttest: loading module: %v", loaderErr)
	}
	return loader
}

// Run applies analyzer a to each testdata directory (path relative to
// the calling test's package directory, e.g. "testdata/basic") and
// checks its diagnostics against the // want comments. Suppressions
// (//lint:allow) are applied before matching, so goldens can assert
// both that a reasoned directive silences a finding and that a
// reason-less one is itself reported.
func Run(t *testing.T, a *lint.Analyzer, dirs ...string) {
	t.Helper()
	l := sharedLoader(t)
	for _, dir := range dirs {
		t.Run(dir, func(t *testing.T) {
			pkg, err := l.LoadDir(dir)
			if err != nil {
				t.Fatalf("linttest: %v", err)
			}
			facts, err := importedFacts(l, a, pkg)
			if err != nil {
				t.Fatalf("linttest: %v", err)
			}
			diags, err := lint.RunAnalyzers(pkg, []*lint.Analyzer{a}, facts)
			if err != nil {
				t.Fatalf("linttest: %v", err)
			}
			checkWants(t, pkg, diags)
		})
	}
}

// importedFacts runs a over every module package pkg imports, directly
// or not, in dependency order as lotsvet does, and returns the facts it
// exported; their diagnostics are not the golden's concern.
func importedFacts(l *lint.Loader, a *lint.Analyzer, pkg *lint.Package) (*lint.FactStore, error) {
	imported := map[string]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if !imported[imp.Path()] {
				imported[imp.Path()] = true
				walk(imp)
			}
		}
	}
	walk(pkg.Types)
	facts := lint.NewFactStore()
	for _, path := range l.ModulePackages() {
		if !imported[path] {
			continue
		}
		dep, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		if _, err := lint.RunAnalyzers(dep, []*lint.Analyzer{a}, facts); err != nil {
			return nil, err
		}
	}
	return facts, nil
}

var wantRe = regexp.MustCompile("//\\s*want((?:\\s+(?:`[^`]*`|\"[^\"]*\"))+)\\s*$")
var wantArgRe = regexp.MustCompile("`[^`]*`|\"[^\"]*\"")

type want struct {
	file string
	line int
	re   *regexp.Regexp
	text string
	hit  bool
}

func checkWants(t *testing.T, pkg *lint.Package, diags []lint.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range wantArgRe.FindAllString(m[1], -1) {
					body := q[1 : len(q)-1]
					re, err := regexp.Compile(body)
					if err != nil {
						t.Fatalf("%s: bad want regexp %s: %v", fmtPos(pos), q, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, text: body})
				}
			}
		}
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.text)
		}
	}
}

func fmtPos(p token.Position) string {
	return fmt.Sprintf("%s:%d:%d", p.Filename, p.Line, p.Column)
}
