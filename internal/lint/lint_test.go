package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// Fixture tests: each analyzer runs over testdata/src/<name>/, which
// holds one file of constructs it must flag (bad.go, every flagged
// line marked with a "// want: <substring>" comment) and one file of
// look-alikes it must stay silent on (good.go, including a
// //lint:allow suppression case). The test fails on any missed want,
// any finding with no want, and any mismatch between a finding's
// message and its want substring.

var (
	fixtureLoaderOnce sync.Once
	fixtureLoader     *Loader
	fixtureLoaderErr  error
)

// sharedLoader type-checks fixtures through one loader so the five
// subtests share a file set and the stdlib source-import cache.
func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	fixtureLoaderOnce.Do(func() {
		root, err := filepath.Abs(filepath.Join("..", ".."))
		if err != nil {
			fixtureLoaderErr = err
			return
		}
		fixtureLoader, fixtureLoaderErr = NewLoader(root)
	})
	if fixtureLoaderErr != nil {
		t.Fatalf("loader: %v", fixtureLoaderErr)
	}
	return fixtureLoader
}

// runFixture loads the named fixture package and runs the analyzers
// over it through Run with their scopes lifted (fixtures live under
// testdata/, outside most scopes), keeping the unsuppressed findings.
func runFixture(t *testing.T, name string, analyzers ...*Analyzer) []Finding {
	t.Helper()
	pkg := loadFixture(t, name)
	var unscoped []*Analyzer
	for _, a := range analyzers {
		u := *a
		u.Scope = nil
		unscoped = append(unscoped, &u)
	}
	return Unsuppressed(Run([]*Package{pkg}, unscoped))
}

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	l := sharedLoader(t)
	pkg, err := l.LoadDir(filepath.Join("internal", "lint", "testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

// expectation is one "// want:" comment in a fixture file.
type expectation struct {
	file   string // base name, e.g. bad.go
	line   int
	substr string
}

const wantMarker = "// want: "

// parseWants collects the want comments of every fixture file in dir.
func parseWants(t *testing.T, name string) []expectation {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var wants []expectation
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("reading fixture: %v", err)
		}
		for i, lineText := range strings.Split(string(data), "\n") {
			if idx := strings.Index(lineText, wantMarker); idx >= 0 {
				wants = append(wants, expectation{
					file:   e.Name(),
					line:   i + 1,
					substr: strings.TrimSpace(lineText[idx+len(wantMarker):]),
				})
			}
		}
	}
	return wants
}

func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		fixture  string
	}{
		{Determinism, "determinism"},
		{ErrDrop, "errdrop"},
		{FloatCmp, "floatcmp"},
		{DeadAssign, "deadassign"},
		{LockOrder, "lockorder"},
		{GoroLeak, "goroleak"},
		{TaintDet, "taintdet"},
		{DeadExport, "deadexport"},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			findings := runFixture(t, tc.fixture, tc.analyzer)
			matchWants(t, tc.fixture, findings)
		})
	}
	// deadexport judges the whole module, the root facade included: any
	// scope leaves some exported surface (a package, the facade) with no
	// judge.
	if len(DeadExport.Scope) != 0 {
		t.Errorf("deadexport scope = %q, want none (every package)", DeadExport.Scope)
	}
}

// matchWants fails on any missed want, any finding with no want, and
// any finding/want message mismatch in the named fixture.
func matchWants(t *testing.T, fixture string, findings []Finding) {
	t.Helper()
	wants := parseWants(t, fixture)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", fixture)
	}
	matched := make([]bool, len(findings))
	for _, w := range wants {
		found := false
		for i, f := range findings {
			if matched[i] || filepath.Base(f.File) != w.file || f.Line != w.line {
				continue
			}
			if !strings.Contains(f.Message, w.substr) {
				t.Errorf("%s:%d: finding %q does not contain want %q", w.file, w.line, f.Message, w.substr)
			}
			matched[i] = true
			found = true
			break
		}
		if !found {
			t.Errorf("%s:%d: no finding for want %q", w.file, w.line, w.substr)
		}
	}
	for i, f := range findings {
		if !matched[i] {
			t.Errorf("unexpected finding %s:%d: %s", filepath.Base(f.File), f.Line, f.Message)
		}
	}
}

// TestFaultsInjectorFixture proves the analyzers scoped (or newly
// scoped) to internal/faults actually fire on injector-shaped code:
// determinism, errdrop and floatcmp findings over one combined
// fixture, with the good-file look-alikes staying clean.
func TestFaultsInjectorFixture(t *testing.T) {
	matchWants(t, "faultsinj", runFixture(t, "faultsinj", Determinism, ErrDrop, FloatCmp, TaintDet))
}

// TestWALFixture proves the analyzers covering internal/wal actually
// fire on log-shaped code: determinism and errdrop findings over one
// combined fixture, with the good-file look-alikes staying clean.
func TestWALFixture(t *testing.T) {
	matchWants(t, "wal", runFixture(t, "wal", Determinism, ErrDrop, TaintDet))
}

// TestGoodFixturesClean pins the false-positive guarantee explicitly:
// no analyzer may produce a finding anywhere in its good.go, which
// exercises both the look-alike constructs and the //lint:allow
// escape hatch.
func TestGoodFixturesClean(t *testing.T) {
	for _, a := range All() {
		findings := runFixture(t, a.Name, a)
		for _, f := range findings {
			if filepath.Base(f.File) == "good.go" {
				t.Errorf("%s: good.go flagged: %s", a.Name, f)
			}
		}
	}
}

// TestAnalyzerScope checks the package scoping that the fixture tests
// bypass: scoped analyzers run only on their listed packages, while
// unscoped analyzers run everywhere.
func TestAnalyzerScope(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		pkg      string
		want     bool
	}{
		{Determinism, "lattice/internal/sim", true},
		{Determinism, "lattice/internal/forest", true},
		{Determinism, "lattice/internal/experiments", true},
		{Determinism, "lattice/internal/metasched", true},
		{Determinism, "lattice/internal/faults", true},
		{Determinism, "lattice/internal/wal", true},
		{Determinism, "lattice/internal/shard", true},
		{Determinism, "lattice/internal/portal", true},
		{Determinism, "lattice/internal/admit", true},
		{Determinism, "lattice/cmd/latticelint", true},
		{Determinism, "lattice/examples/portalrun", false},
		{LockOrder, "lattice/internal/boinc", true},
		{LockOrder, "lattice/internal/shard", true},
		{LockOrder, "lattice/internal/admit", true},
		{LockOrder, "lattice/examples/portalrun", false},
		{GoroLeak, "lattice/examples/portalrun", true},
		{GoroLeak, "lattice/internal/shard", true},
		{GoroLeak, "lattice/internal/admit", true},
		{TaintDet, "lattice/cmd/lattice", true},
		{TaintDet, "lattice/internal/shard", true},
		{TaintDet, "lattice/internal/obs", true},
		{TaintDet, "lattice/internal/admit", true},
		{FloatCmp, "lattice/internal/phylo", true},
		{FloatCmp, "lattice/internal/estimate", true},
		{FloatCmp, "lattice/internal/forest", true},
		{FloatCmp, "lattice/internal/faults", true},
		{FloatCmp, "lattice/internal/shard", true},
		{FloatCmp, "lattice/internal/admit", true},
		{FloatCmp, "lattice/internal/gsbl", false},
		{ErrDrop, "lattice/internal/portal", true},
		{ErrDrop, "lattice/examples/portalrun", true},
		{DeadAssign, "lattice/internal/phylo", true},
		{DeadExport, "lattice", true},
		{DeadExport, "lattice/internal/lrm/cluster", true},
	}
	for _, tc := range cases {
		if got := tc.analyzer.AppliesTo(tc.pkg); got != tc.want {
			t.Errorf("%s.AppliesTo(%q) = %v, want %v", tc.analyzer.Name, tc.pkg, got, tc.want)
		}
	}
}

// TestSuppressionMarked pins the escape-hatch contract: a finding
// covered by //lint:allow is retained and marked Suppressed (so -json
// consumers can audit the hatches), not silently dropped, and
// Unsuppressed filters exactly those findings out.
func TestSuppressionMarked(t *testing.T) {
	findings := Run([]*Package{loadFixture(t, "suppress")}, All())
	var suppressed, open int
	for _, f := range findings {
		if f.Suppressed {
			suppressed++
		} else {
			open++
		}
	}
	if suppressed == 0 {
		t.Fatal("suppress fixture produced no suppressed findings")
	}
	if open == 0 {
		t.Fatal("suppress fixture produced no unsuppressed findings")
	}
	if got := len(Unsuppressed(findings)); got != open {
		t.Errorf("Unsuppressed kept %d findings, want %d", got, open)
	}
}

// TestFindingString pins the human-readable diagnostic format the
// driver prints.
func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "errdrop", File: "x.go", Line: 3, Col: 7, Message: "boom"}
	want := "x.go:3:7: errdrop: boom"
	if got := fmt.Sprint(f); got != want {
		t.Errorf("Finding.String() = %q, want %q", got, want)
	}
}
