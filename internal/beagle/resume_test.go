package beagle

import (
	"bytes"
	"testing"

	"lattice/internal/phylo"
)

// TestRunnerResumeIncremental is the checkpoint/restart contract under
// the optimized backend: a GARLI search checkpointed on the
// incremental engine restores and continues bit-identically for 200
// further generations — across independent restores, and with the
// incremental cache on or off (reuse must be indistinguishable from
// recomputation). A volunteer host that suspends and resumes a
// workunit must land on exactly the search the uninterrupted host
// would have run from the same checkpoint.
func TestRunnerResumeIncremental(t *testing.T) {
	fx := newFixture(t, 31, phylo.Nucleotide, 4, 10, 400)
	names := phylo.TaxonNames(10)
	cfg := phylo.DefaultSearchConfig()
	cfg.AttachmentsPerTaxon = 6
	// Keep termination far away so the resumed searches genuinely run
	// 200 further generations instead of stopping early.
	cfg.MaxGenerations = 10_000
	cfg.StagnationGenerations = 10_000

	eng, err := New(fx.data, fx.model, fx.rates)
	if err != nil {
		t.Fatal(err)
	}
	r, err := phylo.NewRunnerWith(eng, names, cfg, 17)
	if err != nil {
		t.Fatal(err)
	}
	if r.Step(50) {
		t.Fatal("search terminated before the checkpoint")
	}
	var cp bytes.Buffer
	if err := r.Save(&cp); err != nil {
		t.Fatal(err)
	}
	genAtSave := r.Generation()

	restore := func(incremental bool) *phylo.Runner {
		t.Helper()
		e, err := New(fx.data, fx.model, fx.rates)
		if err != nil {
			t.Fatal(err)
		}
		e.SetIncremental(incremental)
		rr, err := phylo.LoadRunnerWith(bytes.NewReader(cp.Bytes()), e, names, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rr
	}
	a := restore(true)
	b := restore(true)
	c := restore(false)

	const further = 200
	for g := 0; g < further; g++ {
		aDone, bDone, cDone := a.Step(1), b.Step(1), c.Step(1)
		if aDone || bDone || cDone {
			t.Fatalf("a resumed search terminated at generation %d", a.Generation())
		}
		_, la := a.Best()
		_, lb := b.Best()
		_, lc := c.Best()
		if la != lb {
			t.Fatalf("restores diverged at generation %d: %v != %v", a.Generation(), la, lb)
		}
		if la != lc {
			t.Fatalf("incremental cache changed the search at generation %d: on=%v off=%v", a.Generation(), la, lc)
		}
	}
	if got, want := a.Generation(), genAtSave+further; got != want {
		t.Errorf("resumed runner at generation %d, want %d", got, want)
	}
	ta, la := a.Best()
	tb, lb := b.Best()
	tc, _ := c.Best()
	if ta.Newick() != tb.Newick() || ta.Newick() != tc.Newick() {
		t.Error("final best trees differ across restores")
	}
	if la != lb {
		t.Errorf("final logL differs across restores: %v != %v", la, lb)
	}
}
