package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// Loader edge cases: packages that exist only as tests, files excluded
// by build constraints, and sources that do not parse. Each test uses
// a fresh loader (not the shared fixture loader) so IncludeTests can
// vary per test without poisoning the shared cache.

func edgeLoader(t *testing.T, includeTests bool) *Loader {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	l.IncludeTests = includeTests
	return l
}

func edgeFixture(name string) string {
	return filepath.Join("internal", "lint", "testdata", "src", name)
}

// TestLoaderTestsOnlyPackage: a directory holding nothing but _test.go
// files is an error without IncludeTests and a complete, type-checked
// package with it — built from the in-package test files only.
func TestLoaderTestsOnlyPackage(t *testing.T) {
	if _, err := edgeLoader(t, false).LoadDir(edgeFixture("testsonly")); err == nil {
		t.Fatal("want an error loading a tests-only package without IncludeTests")
	} else if !strings.Contains(err.Error(), "no Go files") {
		t.Fatalf("error = %v, want it to mention \"no Go files\"", err)
	}

	pkg, err := edgeLoader(t, true).LoadDir(edgeFixture("testsonly"))
	if err != nil {
		t.Fatalf("loading tests-only package with IncludeTests: %v", err)
	}
	if len(pkg.Files) != 0 {
		t.Errorf("tests-only package has %d non-test files, want 0", len(pkg.Files))
	}
	if len(pkg.TestFiles) != 1 {
		t.Fatalf("tests-only package has %d test files, want 1 (external foo_test skipped)", len(pkg.TestFiles))
	}
	if name := pkg.TestFiles[0].Name.Name; name != "testsonly" {
		t.Errorf("loaded test file declares package %q, want testsonly", name)
	}
	if pkg.Types == nil || pkg.Types.Scope().Lookup("helper") == nil {
		t.Error("tests-only package is not type-checked: helper missing from package scope")
	}
	if got := len(pkg.AllFiles()); got != 1 {
		t.Errorf("AllFiles() = %d files, want 1", got)
	}
}

// TestLoaderBuildTagExcluded: a file behind a never-satisfied build
// constraint must be skipped. The excluded file redeclares Platform, so
// failing to skip it would surface as a type-check error here.
func TestLoaderBuildTagExcluded(t *testing.T) {
	pkg, err := edgeLoader(t, false).LoadDir(edgeFixture("buildtags"))
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
	_, err := edgeLoader(t, false).LoadDir(edgeFixture("broken"))
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

// TestLoaderAttachTests: with IncludeTests, in-package test files are
// type-checked into the already-checked package (same scope, same
// Info), external test packages are skipped, and reloading the cached
// package does not attach them twice.
func TestLoaderAttachTests(t *testing.T) {
	l := edgeLoader(t, true)
	pkg, err := l.LoadDir(edgeFixture("withtests"))
	if err != nil {
		t.Fatalf("loading withtests fixture: %v", err)
	}
	if len(pkg.Files) != 1 || len(pkg.TestFiles) != 1 {
		t.Fatalf("loaded %d source + %d test files, want 1 + 1", len(pkg.Files), len(pkg.TestFiles))
	}
	if pkg.Types.Scope().Lookup("checkDouble") == nil {
		t.Error("test helper checkDouble missing from package scope: tests not merged")
	}
	if pkg.Types.Scope().Lookup("quadruple") != nil {
		t.Error("external test symbol quadruple leaked into the package scope")
	}

	again, err := l.LoadDir(edgeFixture("withtests"))
	if err != nil {
		t.Fatalf("reloading withtests fixture: %v", err)
	}
	if again != pkg {
		t.Error("second LoadDir did not return the cached package")
	}
	if len(again.TestFiles) != 1 {
		t.Errorf("reload attached tests twice: %d test files, want 1", len(again.TestFiles))
	}
}

// TestLoaderOutsideModule: import paths outside the module are never
// resolved to a directory under it; they go to the standard-library
// importer.
func TestLoaderOutsideModule(t *testing.T) {
	if dir, ok := edgeLoader(t, false).dirFor("example.com/elsewhere"); ok {
		t.Fatalf("dirFor of a foreign path = %q, want it left unresolved", dir)
	}
}
