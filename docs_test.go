package lattice_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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
