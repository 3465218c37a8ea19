// Package lint is the repo's static-analysis framework: a deliberately
// small, dependency-free reimplementation of the parts of
// golang.org/x/tools/go/analysis that the lotsvet analyzers need. The
// container this repo builds in has no module proxy access, so the
// framework runs entirely on the standard library: packages are
// enumerated with `go list -export` and type-checked from source with
// the gc importer reading build-cache export data (see load.go).
//
// The shape mirrors go/analysis on purpose — Analyzer has a Name, a
// Doc and a Run(*Pass); a Pass carries the type-checked syntax of one
// package and a Report sink — so the analyzers port mechanically to
// the upstream framework if x/tools ever becomes available.
//
// # Suppression directive
//
//	//lint:allow <analyzer> <reason>
//
// suppresses that analyzer's diagnostics on the directive's line (for
// a trailing comment) or on the next code line (for a comment alone on
// its line). The reason is mandatory: a directive without one is
// itself reported as a violation (analyzer name "lint") and cannot be
// suppressed. This keeps every waiver in the tree self-justifying.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Run analyzes one package, reporting findings via pass.Reportf.
	Run func(pass *Pass) error
}

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files is the package syntax, in-package test files included
	// (analyzers that police production code skip them via IsTestFile;
	// boundeddecode reads them to find fuzz targets).
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	pkg   *Package
	diags *[]Diagnostic
	facts *FactStore
}

// IsTestFile reports whether f is an in-package _test.go file.
func (p *Pass) IsTestFile(f *ast.File) bool { return p.pkg.testFiles[f] }

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ExportFact stores v (JSON-marshalled) as this analyzer's fact about
// the current package, for downstream packages to import.
func (p *Pass) ExportFact(v any) error {
	if p.facts == nil {
		return nil
	}
	return p.facts.put(p.Analyzer.Name, p.Pkg.Path(), v)
}

// ImportFact loads the fact this analyzer exported for the package at
// pkgPath into v. It reports whether a fact was found.
func (p *Pass) ImportFact(pkgPath string, v any) bool {
	if p.facts == nil {
		return false
	}
	return p.facts.get(p.Analyzer.Name, pkgPath, v)
}

// FactStore holds per-(analyzer, package) JSON facts. The driver keeps
// one store for a whole run and feeds packages through in dependency
// order (go list -deps order is topological).
type FactStore struct {
	m map[string]map[string]json.RawMessage
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: map[string]map[string]json.RawMessage{}}
}

func (s *FactStore) put(analyzer, pkg string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if s.m[analyzer] == nil {
		s.m[analyzer] = map[string]json.RawMessage{}
	}
	s.m[analyzer][pkg] = b
	return nil
}

func (s *FactStore) get(analyzer, pkg string, v any) bool {
	b, ok := s.m[analyzer][pkg]
	if !ok {
		return false
	}
	return json.Unmarshal(b, v) == nil
}

// RunAnalyzers applies every analyzer to pkg, applies //lint:allow
// suppressions, and returns the surviving diagnostics sorted by
// position. facts may be nil when no analyzer in the set exports any.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer, facts *FactStore) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			pkg:      pkg,
			diags:    &diags,
			facts:    facts,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	diags = applySuppressions(pkg, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

var allowRe = regexp.MustCompile(`^//lint:allow(?:\s+(\S+))?(?:\s+(.*\S))?\s*$`)

// suppression is one well-formed //lint:allow directive.
type suppression struct {
	file     string
	line     int // the code line the directive covers
	analyzer string
}

// applySuppressions drops diagnostics covered by a well-formed
// //lint:allow and appends a "lint" diagnostic for each malformed one.
func applySuppressions(pkg *Package, diags []Diagnostic) []Diagnostic {
	var sups []suppression
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//lint:") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				// A trailing "// want ..." golden expectation merges
				// into the directive's comment text; cut it off so the
				// goldens can assert on directives themselves.
				text := c.Text
				if i := strings.Index(text, " // want"); i >= 0 {
					text = strings.TrimRight(text[:i], " \t")
				}
				m := allowRe.FindStringSubmatch(text)
				if m == nil || !strings.HasPrefix(text, "//lint:allow") {
					diags = append(diags, Diagnostic{
						Pos: pos, Analyzer: "lint",
						Message: fmt.Sprintf("malformed lint directive %q (expect //lint:allow <analyzer> <reason>)", text),
					})
					continue
				}
				if m[1] == "" || m[2] == "" {
					diags = append(diags, Diagnostic{
						Pos: pos, Analyzer: "lint",
						Message: "//lint:allow requires an analyzer name and a non-empty reason (//lint:allow <analyzer> <reason>)",
					})
					continue
				}
				sups = append(sups, suppression{
					file:     pos.Filename,
					line:     pkg.directiveTarget(pos),
					analyzer: m[1],
				})
			}
		}
	}
	if len(sups) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		if d.Analyzer == "lint" || !suppressed(sups, d) {
			kept = append(kept, d)
		}
	}
	return kept
}

func suppressed(sups []suppression, d Diagnostic) bool {
	for _, s := range sups {
		if s.file == d.Pos.Filename && s.line == d.Pos.Line && s.analyzer == d.Analyzer {
			return true
		}
	}
	return false
}

// directiveTarget resolves which code line a directive at pos covers:
// its own line when it trails code, otherwise the next non-blank,
// non-comment line.
func (p *Package) directiveTarget(pos token.Position) int {
	lines := p.srcLines(pos.Filename)
	if pos.Line-1 < len(lines) {
		before := lines[pos.Line-1]
		if pos.Column-1 <= len(before) {
			before = before[:pos.Column-1]
		}
		if strings.TrimSpace(before) != "" {
			return pos.Line // trailing comment
		}
	}
	for l := pos.Line; l < len(lines); l++ {
		t := strings.TrimSpace(lines[l])
		if t == "" || strings.HasPrefix(t, "//") {
			continue
		}
		return l + 1 // lines are 0-indexed here, positions 1-indexed
	}
	return pos.Line
}

func (p *Package) srcLines(filename string) []string {
	if p.lines == nil {
		p.lines = map[string][]string{}
	}
	if l, ok := p.lines[filename]; ok {
		return l
	}
	l := strings.Split(string(p.src[filename]), "\n")
	p.lines[filename] = l
	return l
}
