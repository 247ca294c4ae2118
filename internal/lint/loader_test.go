package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// Loader edge cases: directories with no Go source, files excluded by
// build constraints, and sources that do not parse. Each test uses a
// fresh loader (not the shared fixture loader) so a failed load cannot
// poison the shared cache.

func edgeLoader(t *testing.T) *Loader {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	return l
}

func edgeFixture(name string) string {
	return filepath.Join("internal", "lint", "testdata", "src", name)
}

// TestLoaderNoGoFiles: a directory without a non-test Go file is not
// a package; loading it is an error, not an empty package.
func TestLoaderNoGoFiles(t *testing.T) {
	_, err := edgeLoader(t).LoadDir(filepath.Join("internal", "lint", "testdata"))
	if err == nil || !strings.Contains(err.Error(), "no Go files") {
		t.Fatalf("error = %v, want it to mention \"no Go files\"", err)
	}
}

// TestLoaderBuildTagExcluded: a file behind a never-satisfied build
// constraint must be skipped. The excluded file redeclares Platform, so
// failing to skip it would surface as a type-check error here.
func TestLoaderBuildTagExcluded(t *testing.T) {
	pkg, err := edgeLoader(t).LoadDir(edgeFixture("buildtags"))
	if err != nil {
		t.Fatalf("loading buildtags fixture: %v", err)
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("loaded %d files, want 1 (excluded.go skipped by its build constraint)", len(pkg.Files))
	}
	got := filepath.Base(pkg.Fset.File(pkg.Files[0].Pos()).Name())
	if got != "keep.go" {
		t.Errorf("loaded file = %s, want keep.go", got)
	}
}

// TestLoaderSyntaxError: a package that does not parse must come back
// as an error naming the file — never a panic, never a silent skip.
func TestLoaderSyntaxError(t *testing.T) {
	_, err := edgeLoader(t).LoadDir(edgeFixture("broken"))
	if err == nil {
		t.Fatal("want a parse error loading the broken fixture")
	}
	if !strings.Contains(err.Error(), "lint: parsing") {
		t.Errorf("error = %v, want the loader's \"lint: parsing\" prefix", err)
	}
	if !strings.Contains(err.Error(), "broken.go") {
		t.Errorf("error = %v, want it to name broken.go", err)
	}
}

// TestLoaderOutsideModule: import paths outside the module are never
// resolved to a directory under it; they go to the standard-library
// importer.
func TestLoaderOutsideModule(t *testing.T) {
	if dir, ok := edgeLoader(t).dirFor("example.com/elsewhere"); ok {
		t.Fatalf("dirFor of a foreign path = %q, want it left unresolved", dir)
	}
}
