package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	Path  string // import path, e.g. lattice/internal/sim
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	// TestFiles are the package's in-package _test.go files, present
	// only when the loader's IncludeTests is set. They are
	// type-checked into the same *types.Package and Info as Files.
	// External test packages (package foo_test) are not loaded.
	TestFiles []*ast.File
	Types     *types.Package
	Info      *types.Info

	testsLoaded bool
}

// AllFiles returns source and (when loaded) test files.
func (p *Package) AllFiles() []*ast.File {
	if len(p.TestFiles) == 0 {
		return p.Files
	}
	return append(append([]*ast.File{}, p.Files...), p.TestFiles...)
}

// Loader parses and type-checks packages of a single module using
// only the standard library: module-local imports are resolved by
// walking the module tree, everything else (the standard library) is
// type-checked from source by go/importer's "source" importer. No
// network, no GOPATH, no export data needed. Files excluded by build
// constraints for the current GOOS/GOARCH are skipped, mirroring the
// go tool.
type Loader struct {
	ModRoot string
	ModPath string
	// IncludeTests also loads each package's in-package _test.go
	// files. Test files are attached after the base package
	// type-checks, so a test-only import cycle (B's tests import A, A
	// imports B) cannot wedge the loader.
	IncludeTests bool

	fset  *token.FileSet
	std   types.Importer
	cache map[string]*Package
}

// NewLoader creates a loader rooted at the module directory, reading
// the module path from go.mod.
func NewLoader(modRoot string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModRoot: modRoot,
		ModPath: modPath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		cache:   map[string]*Package{},
	}, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(file string) (string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s", file)
}

// LoadAll loads every package under the module root, in path order.
// Directories named testdata or vendor, and directories whose name
// starts with "." or "_", are skipped, mirroring the go tool's
// treatment of ./... patterns.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModRoot &&
			(name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if l.hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// hasGoFiles reports whether dir holds loadable Go source: non-test
// files always, test files too when IncludeTests is set (a package
// with only tests is still a package then).
func (l *Loader) hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		if !strings.HasSuffix(e.Name(), "_test.go") || l.IncludeTests {
			return true
		}
	}
	return false
}

// LoadDir loads the package in dir (absolute or relative to the
// module root).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs := dir
	if !filepath.IsAbs(abs) {
		abs = filepath.Join(l.ModRoot, dir)
	}
	rel, err := filepath.Rel(l.ModRoot, abs)
	if err != nil {
		return nil, err
	}
	path := l.ModPath
	if rel != "." {
		path = l.ModPath + "/" + filepath.ToSlash(rel)
	}
	pkg, err := l.load(path, abs)
	if err != nil {
		return nil, err
	}
	if err := l.attachTests(pkg); err != nil {
		return nil, err
	}
	return pkg, nil
}

// dirFor maps a module-local import path to its directory; any other
// path belongs to the standard-library importer.
func (l *Loader) dirFor(path string) (string, bool) {
	if path == l.ModPath {
		return l.ModRoot, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModPath+"/"); ok {
		return filepath.Join(l.ModRoot, filepath.FromSlash(rest)), true
	}
	return "", false
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	files, err := l.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	info := newInfo()
	if len(files) == 0 {
		// A package may consist only of tests (or only of files
		// excluded by build constraints, which is an error).
		if l.IncludeTests {
			return l.loadTestsOnly(path, dir, info)
		}
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	conf := types.Config{Importer: (*modImporter)(l)}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.cache[path] = pkg
	return pkg, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// parseDir parses the directory's source files (tests=false) or its
// _test.go files (tests=true), skipping files excluded by build
// constraints for the current GOOS/GOARCH — a //go:build linux file
// on darwin would otherwise poison type checking with duplicate or
// dangling declarations.
func (l *Loader) parseDir(dir string, tests bool) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") != tests {
			continue
		}
		if match, err := build.Default.MatchFile(dir, name); err != nil || !match {
			continue // excluded by build constraints (or unreadable: surfaces elsewhere)
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", filepath.Join(dir, name), err)
		}
		files = append(files, f)
	}
	return files, nil
}

// loadTestsOnly type-checks a package that has no non-test sources:
// its in-package test files form the whole unit.
func (l *Loader) loadTestsOnly(path, dir string, info *types.Info) (*Package, error) {
	all, err := l.parseDir(dir, true)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, f := range all {
		if !strings.HasSuffix(f.Name.Name, "_test") {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	conf := types.Config{Importer: (*modImporter)(l)}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{
		Path: path, Dir: dir, Fset: l.fset,
		TestFiles: files, Types: tpkg, Info: info, testsLoaded: true,
	}
	l.cache[path] = pkg
	return pkg, nil
}

// attachTests type-checks the package's in-package _test.go files
// into the already-checked package. Called only from the top-level
// entry points, never from the importer, so dependency loads stay
// test-free and test-only import cycles terminate. External test
// packages (package foo_test) are skipped: they cannot be merged into
// the package's type scope.
func (l *Loader) attachTests(pkg *Package) error {
	if !l.IncludeTests || pkg.testsLoaded {
		return nil
	}
	pkg.testsLoaded = true
	all, err := l.parseDir(pkg.Dir, true)
	if err != nil {
		return err
	}
	var files []*ast.File
	for _, f := range all {
		if f.Name.Name == pkg.Types.Name() {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return nil
	}
	conf := types.Config{Importer: (*modImporter)(l)}
	checker := types.NewChecker(&conf, l.fset, pkg.Types, pkg.Info)
	if err := checker.Files(files); err != nil {
		return fmt.Errorf("lint: type-checking tests of %s: %w", pkg.Path, err)
	}
	pkg.TestFiles = files
	return nil
}

// modImporter resolves imports during type checking: module-local
// paths recurse through the loader, the rest goes to the standard
// library source importer.
type modImporter Loader

func (m *modImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(m)
	if dir, ok := l.dirFor(path); ok {
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
