package lattice_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"lattice/internal/lint"
)

// TestDocsNameOnlyWhatExists keeps the prose honest about the tree:
// every `make <target>` the four living documents mention is a target
// of the Makefile, every backticked `pkg.Ident` whose pkg is the last
// element of an internal/… package path is declared at top level in
// that package (test files included), and every repo path — any word
// ending in .go, .json or .md, or under cmd/, internal/, examples/ —
// exists.
// bench/, CHANGES.md and ROADMAP.md are history and may name the dead.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z-]*):`).FindAllSubmatch(mk, -1) {
		targets[string(m[1])] = true
	}
	// Bare file names resolve against every file in the tree; written
	// are the ones the programs create at run time.
	names := map[string]bool{}
	written := map[string]bool{"snapshot.json": true, "latticelint.json": true, "trace.json": true}
	if err := filepath.WalkDir(".", func(_ string, d fs.DirEntry, err error) error {
		if err == nil {
			names[d.Name()] = true
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	decls := internalDecls(t)
	qualified := regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)`)
	span := regexp.MustCompile("`[^`\n]+`")
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", "internal/README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range span.FindAllString(string(text), -1) {
			if w := strings.Fields(strings.Trim(s, "`")); len(w) >= 2 && w[0] == "make" && !targets[w[1]] {
				t.Errorf("%s: %s is not a Makefile target", doc, s)
			}
			for _, m := range qualified.FindAllStringSubmatch(s, -1) {
				if names, ok := decls[m[1]]; ok && !names[m[2]] {
					t.Errorf("%s: %s names %s.%s, which package %s does not declare", doc, s, m[1], m[2], m[1])
				}
			}
		}
		for _, w := range strings.Fields(string(text)) {
			w = strings.Trim(w, "`\"'()[].,;:")
			w = strings.TrimSuffix(strings.TrimPrefix(w, "./"), "/...")
			inTree := strings.HasPrefix(w, "cmd/") || strings.HasPrefix(w, "internal/") || strings.HasPrefix(w, "examples/")
			isFile := strings.HasSuffix(w, ".go") || strings.HasSuffix(w, ".json") || strings.HasSuffix(w, ".md")
			if !inTree && !isFile || strings.ContainsAny(w, "*<>{}=…`") || written[filepath.Base(w)] {
				continue
			}
			if !strings.Contains(w, "/") && names[w] {
				continue
			}
			_, atRoot := os.Stat(w)
			_, beside := os.Stat(filepath.Join(filepath.Dir(doc), w))
			if atRoot != nil && beside != nil {
				t.Errorf("%s names %s, which the tree does not have", doc, w)
			}
		}
	}
}

// internalDecls maps the last element of every internal/… package path
// to the names its files, test files included, declare at top level.
func internalDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	decls := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == "testdata":
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.Base(filepath.Dir(path))
		if decls[pkg] == nil {
			decls[pkg] = map[string]bool{}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					decls[pkg][d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						decls[pkg][s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							decls[pkg][n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// TestDeadexportHatchesAreTheOracles pins the inventory of
// //lint:allow deadexport sites in non-test files: exactly the six
// exports only tests call because they are the tests' oracles. Any
// other export nothing in the program reaches is deleted or
// unexported, so a new hatch has to be argued here, in the diff.
func TestDeadexportHatchesAreTheOracles(t *testing.T) {
	want := []string{
		"gsbl.ParseAppDescription",
		"metasched.Scheduler.Stability",
		"phylo.PatternData.BootstrapReplicate",
		"phylo.SameLogL",
		"phylo.Tree.Check",
		"sim.RNG.Normal",
	}
	var got []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == "testdata" || d.Name() == ".git"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, c := range f.Comments {
			for _, line := range c.List {
				if !strings.HasPrefix(line.Text, "//lint:allow deadexport") {
					continue
				}
				got = append(got, hatchSite(fset, f, line.Slash))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("deadexport hatches %q, want exactly the oracles %q", got, want)
	}
}

// hatchSite names what the hatch at pos annotates — "pkg.Name" or
// "pkg.Recv.Name" for the declaration it is the doc of or sits on the
// first line of — or, failing that, its file and line.
func hatchSite(fset *token.FileSet, f *ast.File, pos token.Pos) string {
	line := fset.Position(pos).Line
	for _, decl := range f.Decls {
		start := fset.Position(decl.Pos()).Line
		var doc *ast.CommentGroup
		var names []string
		switch d := decl.(type) {
		case *ast.FuncDecl:
			doc, names = d.Doc, []string{d.Name.Name}
			if d.Recv != nil && len(d.Recv.List) == 1 {
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					names = []string{id.Name + "." + d.Name.Name}
				}
			}
		case *ast.GenDecl:
			doc = d.Doc
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names = append(names, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names = append(names, n.Name)
					}
				}
			}
		}
		if line == start || doc != nil && doc.Pos() <= pos && pos < doc.End() {
			return f.Name.Name + "." + strings.Join(names, ",")
		}
	}
	return fset.Position(pos).String()
}

// TestOptionsHaveCallers holds internal/ to the options rule: every
// exported field of an exported *Config or *Options struct is set by a
// non-test file outside its package — as a keyed element of a
// composite literal (elided element types included) or through a
// selector assignment — or is listed below with the reason it stays a
// field. A value nobody varies is a constant. An entry whose field
// gained a caller or went away fails too, so the list stays exact.
func TestOptionsHaveCallers(t *testing.T) {
	want := map[string]string{
		"boinc.PopulationConfig.Hosts":          "set through DefaultPopulation(n)",
		"metasched.Config.RescanInterval":       "tests set 0 so that Run returns",
		"phylo.SearchConfig.BrlenOptIterations": "a GARLI setting the cost model reads; tests shorten it",
		"phylo.SearchConfig.PopulationSize":     "a GARLI setting the cost model reads",
		"wal.Options.Sync":                      "the fsync durability flush",
	}
	ld, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ld.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	fields := map[*types.Var]string{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, ld.ModPath+"/internal/") {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Options") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[f] = p.Types.Name() + "." + name + "." + f.Name()
				}
			}
		}
	}
	set := map[*types.Var]bool{}
	for _, p := range pkgs {
		mark := func(id *ast.Ident) {
			if v, ok := p.Info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg() != p.Types {
				set[v] = true
			}
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						mark(id)
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							mark(sel.Sel)
						}
					}
				}
				return true
			})
		}
	}
	var unset []string
	for f, name := range fields {
		if !set[f] {
			unset = append(unset, name)
		}
	}
	slices.Sort(unset)
	for _, name := range unset {
		if want[name] == "" {
			t.Errorf("%s: no non-test file outside its package sets it; make it a constant or argue it here", name)
		}
	}
	for name := range want {
		if !slices.Contains(unset, name) {
			t.Errorf("%s is listed but has a caller or is gone; drop the entry", name)
		}
	}
}
