package phylo

import (
	"strings"
	"testing"

	"lattice/internal/sim"
)

// searchFixture simulates data on a known tree and returns everything
// a search needs.
type searchFixture struct {
	truth *Tree
	al    *Alignment
	pd    *PatternData
	model *Model
	rates *SiteRates
}

func newSearchFixture(t testing.TB, ntaxa, nsites int, seed int64) *searchFixture {
	t.Helper()
	rng := sim.NewRNG(seed)
	m, err := NewHKY85(2.0, []float64{0.3, 0.2, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewSiteRates(RateHomogeneous, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	truth := RandomTree(TaxonNames(ntaxa), 0.12, rng)
	al, err := SimulateAlignment(truth, m, rs, nsites, rng)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := al.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return &searchFixture{truth: truth, al: al, pd: pd, model: m, rates: rs}
}

// engine builds a fresh reference engine over the fixture's data.
func (fx *searchFixture) engine(t testing.TB) *Likelihood {
	t.Helper()
	lk, err := NewLikelihood(fx.pd, fx.model, fx.rates)
	if err != nil {
		t.Fatal(err)
	}
	return lk
}

func quickConfig() SearchConfig {
	cfg := DefaultSearchConfig()
	cfg.MaxGenerations = 120
	cfg.StagnationGenerations = 40
	cfg.AttachmentsPerTaxon = 6
	cfg.BrlenOptIterations = 4
	return cfg
}

func TestSearchImprovesOnRandomStart(t *testing.T) {
	fx := newSearchFixture(t, 8, 400, 100)
	rng := sim.NewRNG(7)
	lk, _ := NewLikelihood(fx.pd, fx.model, fx.rates)
	randTree := RandomTree(fx.al.Names, 0.05, rng)
	randL := lk.LogLikelihood(randTree)

	cfg := quickConfig()
	cfg.StartingTree = StartRandom
	res, err := SearchWith(fx.engine(t), fx.al.Names, cfg, sim.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.BestLogL <= randL {
		t.Errorf("search result %.2f not better than a random tree %.2f", res.BestLogL, randL)
	}
	if res.Work <= 0 || res.Evaluations <= 0 || res.Generations <= 0 {
		t.Errorf("bookkeeping empty: %+v", res)
	}
	if err := res.BestTree.Check(); err != nil {
		t.Errorf("best tree invalid: %v", err)
	}
}

func TestSearchApproachesTruth(t *testing.T) {
	fx := newSearchFixture(t, 8, 800, 200)
	cfg := quickConfig()
	res, err := SearchWith(fx.engine(t), fx.al.Names, cfg, sim.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	lk, _ := NewLikelihood(fx.pd, fx.model, fx.rates)
	truthL := lk.LogLikelihood(fx.truth)
	// The inferred tree should fit the data at least about as well as
	// the generating tree (ML can legitimately exceed it).
	if res.BestLogL < truthL-10 {
		t.Errorf("search logL %.2f far below truth %.2f", res.BestLogL, truthL)
	}
	maxRF := 2 * (fx.truth.NumTaxa() - 3)
	if d := res.BestTree.RFDistance(fx.truth); d > maxRF/2 {
		t.Errorf("inferred tree RF distance %d of max %d — search is not working", d, maxRF)
	}
}

func TestSearchDeterministicPerSeed(t *testing.T) {
	fx := newSearchFixture(t, 7, 300, 300)
	cfg := quickConfig()
	r1, err := SearchWith(fx.engine(t), fx.al.Names, cfg, sim.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SearchWith(fx.engine(t), fx.al.Names, cfg, sim.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	if r1.BestLogL != r2.BestLogL || r1.BestTree.Newick() != r2.BestTree.Newick() {
		t.Error("same seed produced different searches")
	}
	r3, err := SearchWith(fx.engine(t), fx.al.Names, cfg, sim.NewRNG(43))
	if err != nil {
		t.Fatal(err)
	}
	if r1.BestTree.Newick() == r3.BestTree.Newick() && r1.BestLogL == r3.BestLogL {
		t.Log("different seeds converged to the same tree (possible on small data)")
	}
}

func TestSearchRepsIncreaseWork(t *testing.T) {
	fx := newSearchFixture(t, 6, 200, 400)
	cfg := quickConfig()
	cfg.SearchReps = 1
	one, err := SearchWith(fx.engine(t), fx.al.Names, cfg, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg.SearchReps = 3
	three, err := SearchWith(fx.engine(t), fx.al.Names, cfg, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(three.Replicates) != 3 {
		t.Fatalf("got %d replicates, want 3", len(three.Replicates))
	}
	if three.Work < 2*one.Work {
		t.Errorf("3 reps work %.0f not ≈3× 1 rep work %.0f", three.Work, one.Work)
	}
	// Several replicates search on their own streams, so none of them
	// repeats "one"; the result is the best of the three.
	for i, rr := range three.Replicates {
		if rr.LogL > three.BestLogL {
			t.Errorf("replicate %d scored %v above the reported best %v", i, rr.LogL, three.BestLogL)
		}
	}
}

func TestSearchUserStartingTree(t *testing.T) {
	fx := newSearchFixture(t, 6, 200, 500)
	cfg := quickConfig()
	cfg.StartingTree = StartUser
	cfg.UserTree = fx.truth
	res, err := SearchWith(fx.engine(t), fx.al.Names, cfg, sim.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	lk, _ := NewLikelihood(fx.pd, fx.model, fx.rates)
	truthL := lk.LogLikelihood(fx.truth)
	if res.BestLogL < truthL-1e-6 {
		t.Errorf("search from truth ended below truth: %v < %v", res.BestLogL, truthL)
	}
}

func TestSearchConfigValidation(t *testing.T) {
	fx := newSearchFixture(t, 6, 100, 600)
	threeOfSix, err := ParseNewick("(taxon00:0.1,taxon01:0.1,taxon02:0.1);", nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := []func(*SearchConfig){
		func(c *SearchConfig) { c.SearchReps = 0 },
		func(c *SearchConfig) { c.PopulationSize = 0 },
		func(c *SearchConfig) { c.MaxGenerations = 0 },
		func(c *SearchConfig) { c.StartingTree = StartUser; c.UserTree = nil },
		func(c *SearchConfig) { c.StartingTree = StartUser; c.UserTree = threeOfSix },
		func(c *SearchConfig) { c.StartingTree = StartingTreeKind(9) },
		func(c *SearchConfig) { c.StartingTree = StartStepwise; c.AttachmentsPerTaxon = 0 },
	}
	for i, mutate := range bad {
		cfg := quickConfig()
		mutate(&cfg)
		if _, err := SearchWith(fx.engine(t), fx.al.Names, cfg, sim.NewRNG(1)); err == nil {
			t.Errorf("case %d: expected config validation error", i)
		}
	}
	if _, err := SearchWith(fx.engine(t), fx.al.Names[:3], quickConfig(), sim.NewRNG(1)); err == nil {
		t.Error("expected error for wrong name count")
	}
}

func TestBootstrapSearchProducesSupport(t *testing.T) {
	fx := newSearchFixture(t, 6, 500, 700)
	rng := sim.NewRNG(77)
	cfg := quickConfig()
	cfg.MaxGenerations = 60
	cfg.StagnationGenerations = 25
	var trees []*Tree
	for i := 0; i < 5; i++ {
		bs := fx.pd.Bootstrap(rng.Float64)
		lk, err := NewLikelihood(bs, fx.model, fx.rates)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SearchWith(lk, fx.al.Names, cfg, rng.Stream("bs"))
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, res.BestTree)
	}
	sup := NewSplitSupport(trees)
	if sup.Total != 5 {
		t.Fatalf("support total %d", sup.Total)
	}
	cons, err := sup.MajorityRuleConsensus(fx.al.Names)
	if err != nil {
		t.Fatal(err)
	}
	if err := cons.Check(); err != nil {
		t.Errorf("consensus invalid: %v", err)
	}
	if cons.NumTaxa() != 6 {
		t.Errorf("consensus has %d taxa, want 6", cons.NumTaxa())
	}
	if !strings.Contains(cons.Newick(), ")") {
		t.Error("consensus completely unresolved")
	}
}
