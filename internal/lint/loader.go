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
// Its _test.go files are never loaded: go vet and the race-enabled
// test run are the gates that read tests.
type Package struct {
	Path  string // import path, e.g. lattice/internal/sim
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
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

// hasGoFiles reports whether dir holds a non-test Go file.
func (l *Loader) hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		if !strings.HasSuffix(e.Name(), "_test.go") {
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
	return l.load(path, abs)
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
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := newInfo()
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

// parseDir parses the directory's non-test source files, skipping
// files excluded by build constraints for the current GOOS/GOARCH — a
// //go:build linux file on darwin would otherwise poison type checking
// with duplicate or dangling declarations.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
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
