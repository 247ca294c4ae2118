package beagle

import (
	"bytes"
	"testing"

	"lattice/internal/phylo"
	"lattice/internal/sim"
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
	r, err := phylo.NewRunner(eng, names, cfg, 17)
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
		rr, err := phylo.LoadRunner(bytes.NewReader(cp.Bytes()), e, names, cfg)
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

// TestRunnerIsSearchWith is phylo's test of the same name on the
// optimized backend: an uninterrupted Runner stepped to its end is
// SearchWith's lone replicate on the same seed, the final polish
// included, and a finished runner resumes finished, unpolished again.
func TestRunnerIsSearchWith(t *testing.T) {
	fx := newFixture(t, 900, phylo.Nucleotide, 4, 7, 300)
	names := phylo.TaxonNames(7)
	cfg := phylo.DefaultSearchConfig()
	cfg.MaxGenerations = 120
	cfg.StagnationGenerations = 40
	cfg.AttachmentsPerTaxon = 6
	cfg.BrlenOptIterations = 4
	engine := func() *Engine {
		e, err := New(fx.data, fx.model, fx.rates)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	for seed := int64(5); seed <= 8; seed++ {
		r, err := phylo.NewRunner(engine(), names, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Step(cfg.MaxGenerations) {
			t.Fatalf("seed %d: runner unfinished after MaxGenerations steps", seed)
		}
		tree, logL := r.Best()
		res, err := phylo.SearchWith(engine(), names, cfg, sim.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		if tree.Newick() != res.BestTree.Newick() || logL != res.BestLogL {
			t.Errorf("seed %d: runner ends at %.4f %s, SearchWith at %.4f %s",
				seed, logL, tree.Newick(), res.BestLogL, res.BestTree.Newick())
		}

		var cp bytes.Buffer
		if err := r.Save(&cp); err != nil {
			t.Fatal(err)
		}
		back, err := phylo.LoadRunner(&cp, engine(), names, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Step(0) {
			t.Errorf("seed %d: a finished checkpoint resumes unfinished", seed)
		}
		// Unpolished again, it holds the saved tree as read back, at
		// the engine's score.
		idx := make(map[string]int, len(names))
		for i, n := range names {
			idx[n] = i
		}
		saved, err := phylo.ParseNewick(tree.Newick(), idx)
		if err != nil {
			t.Fatal(err)
		}
		want := engine().LogLikelihood(saved)
		if bt, bl := back.Best(); bt.Newick() != tree.Newick() || bl != want {
			t.Errorf("seed %d: finished checkpoint resumed to %.6f, saved %.6f", seed, bl, want)
		}
	}
}
