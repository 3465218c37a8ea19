package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Name    string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info

	testFiles map[*ast.File]bool
	src       map[string][]byte // abs filename -> source
	lines     map[string][]string
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	Standard   bool
	DepOnly    bool
	ForTest    string
	GoFiles    []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// Loader enumerates and type-checks module packages without x/tools:
// `go list -e -test -export -deps -json` yields, offline, every
// package's source file list plus compiled export data for its
// dependencies in the build cache; target packages are then parsed and
// type-checked from source with the gc importer reading that export
// data. Test-variant packages (ForTest set) carry the in-package
// _test.go files, so analyzers see fuzz targets too.
type Loader struct {
	fset    *token.FileSet
	index   map[string]*listPkg // ImportPath (incl. variants) -> entry
	order   []string            // go list output order = dependency order
	testVar map[string]string   // plain path -> in-package test variant path
	loaded  map[string]*Package
}

// NewLoader lists patterns (plus their dependency closure) under
// modDir. It shells out to the go tool once; everything after is
// in-process.
func NewLoader(modDir string, patterns ...string) (*Loader, error) {
	args := append([]string{"list", "-e", "-test", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = modDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	l := &Loader{
		fset:    token.NewFileSet(),
		index:   map[string]*listPkg{},
		testVar: map[string]string{},
		loaded:  map[string]*Package{},
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list decode: %v", err)
		}
		pp := p
		l.index[p.ImportPath] = &pp
		l.order = append(l.order, p.ImportPath)
		if p.ForTest != "" {
			// The in-package test variant keeps the plain package name;
			// the external _test variant (and the .test binary) do not.
			if plain := l.index[p.ForTest]; plain != nil && plain.Name == p.Name {
				l.testVar[p.ForTest] = p.ImportPath
			} else if plain == nil && !strings.HasSuffix(p.Name, "_test") && p.Name != "main" {
				l.testVar[p.ForTest] = p.ImportPath
			}
		}
	}
	return l, nil
}

// ModulePackages returns the import paths of the non-test-binary
// packages matched by the loader's patterns, in dependency order.
func (l *Loader) ModulePackages() []string {
	var out []string
	for _, ip := range l.order {
		p := l.index[ip]
		if p.Standard || p.DepOnly || p.ForTest != "" || strings.HasSuffix(ip, ".test") {
			continue
		}
		out = append(out, ip)
	}
	return out
}

// Load parses and type-checks the package at importPath from source,
// preferring its in-package test variant (so _test.go files are seen).
func (l *Loader) Load(importPath string) (*Package, error) {
	if p, ok := l.loaded[importPath]; ok {
		return p, nil
	}
	entry := l.index[importPath]
	if tv, ok := l.testVar[importPath]; ok {
		entry = l.index[tv]
	}
	if entry == nil {
		return nil, fmt.Errorf("lint: package %q not in go list output", importPath)
	}
	if entry.Error != nil {
		return nil, fmt.Errorf("lint: %s: %s", importPath, entry.Error.Err)
	}
	var files []string
	for _, f := range entry.GoFiles {
		files = append(files, filepath.Join(entry.Dir, f))
	}
	pkg, err := l.check(importPath, entry.Dir, files, entry.ImportMap)
	if err != nil {
		return nil, err
	}
	l.loaded[importPath] = pkg
	return pkg, nil
}

// LoadDir type-checks the .go files of a directory that go list does
// not know about (an analyzer's testdata package). Imports resolve
// against the loader's index, so testdata may import real module
// packages.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no .go files in %s", dir)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		abs = dir
	}
	return l.check("testdata/"+filepath.Base(dir), abs, files, nil)
}

func (l *Loader) check(pkgPath, dir string, files []string, importMap map[string]string) (*Package, error) {
	pkg := &Package{
		PkgPath:   pkgPath,
		Dir:       dir,
		Fset:      l.fset,
		testFiles: map[*ast.File]bool{},
		src:       map[string][]byte{},
	}
	for _, fn := range files {
		src, err := os.ReadFile(fn)
		if err != nil {
			return nil, err
		}
		af, err := parser.ParseFile(l.fset, fn, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, af)
		pkg.src[fn] = src
		if strings.HasSuffix(fn, "_test.go") {
			pkg.testFiles[af] = true
		}
	}
	imp := importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		if m, ok := importMap[path]; ok {
			path = m
		}
		e := l.index[path]
		if e == nil {
			return nil, fmt.Errorf("lint: import %q not in go list output", path)
		}
		if e.Export == "" {
			if e.Error != nil {
				return nil, fmt.Errorf("lint: import %q: %s", path, e.Error.Err)
			}
			return nil, fmt.Errorf("lint: no export data for %q (does it compile?)", path)
		}
		return os.Open(e.Export)
	})
	conf := types.Config{Importer: imp}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tpkg, err := conf.Check(pkgPath, l.fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %v", pkgPath, err)
	}
	pkg.Types = tpkg
	pkg.Name = tpkg.Name()
	return pkg, nil
}

// FindModRoot walks up from dir to the enclosing go.mod directory.
func FindModRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		d = parent
	}
}
