package beagle

import (
	"math"
	"testing"
	"testing/quick"

	"lattice/internal/phylo"
	"lattice/internal/sim"
)

// fixture builds a random (tree, data, model, rates) configuration.
type fixture struct {
	tree  *phylo.Tree
	data  *phylo.PatternData
	model *phylo.Model
	rates *phylo.SiteRates
}

func newFixture(t testing.TB, seed int64, dt phylo.DataType, ncats, ntaxa, nsites int) *fixture {
	t.Helper()
	rng := sim.NewRNG(seed)
	var model *phylo.Model
	var err error
	switch dt {
	case phylo.Nucleotide:
		model, err = phylo.NewGTR([6]float64{1.1, 3.2, 0.8, 1.3, 4.0, 1}, []float64{0.28, 0.22, 0.26, 0.24})
	case phylo.AminoAcid:
		model, err = phylo.NewEmpiricalAA()
	default:
		model, err = phylo.NewGY94(2, 0.4, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	var rates *phylo.SiteRates
	if ncats <= 1 {
		rates, err = phylo.NewSiteRates(phylo.RateHomogeneous, 0, 0, 1)
	} else {
		rates, err = phylo.NewSiteRates(phylo.RateGamma, 0.6, 0, ncats)
	}
	if err != nil {
		t.Fatal(err)
	}
	tree := phylo.RandomTree(phylo.TaxonNames(ntaxa), 0.12, rng)
	al, err := phylo.SimulateAlignment(tree, model, rates, nsites, rng)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := al.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{tree: tree, data: pd, model: model, rates: rates}
}

func TestAgreesWithReference(t *testing.T) {
	cases := []struct {
		name   string
		dt     phylo.DataType
		ncats  int
		ntaxa  int
		nsites int
	}{
		{"nuc-flat", phylo.Nucleotide, 1, 8, 300},
		{"nuc-gamma", phylo.Nucleotide, 4, 12, 500},
		{"aa-gamma", phylo.AminoAcid, 4, 6, 120},
		{"codon-flat", phylo.Codon, 1, 5, 40},
		{"deep-tree", phylo.Nucleotide, 4, 40, 200},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fx := newFixture(t, int64(100+i), c.dt, c.ncats, c.ntaxa, c.nsites)
			ref, err := phylo.NewLikelihood(fx.data, fx.model, fx.rates)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := New(fx.data, fx.model, fx.rates)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.LogLikelihood(fx.tree)
			got := eng.LogLikelihood(fx.tree)
			if math.Abs(got-want) > 1e-8*math.Abs(want) {
				t.Errorf("beagle %v != reference %v", got, want)
			}
		})
	}
}

// Property: for random seeds and branch scalings, both engines agree.
func TestAgreementProperty(t *testing.T) {
	fx := newFixture(t, 7, phylo.Nucleotide, 4, 10, 300)
	ref, _ := phylo.NewLikelihood(fx.data, fx.model, fx.rates)
	eng, _ := New(fx.data, fx.model, fx.rates)
	f := func(seed int64, scaleRaw uint8) bool {
		rng := sim.NewRNG(seed)
		tr := fx.tree.Clone()
		scale := 0.2 + float64(scaleRaw)/64
		tr.PostOrder(func(n *phylo.Node) {
			if n.Parent != nil {
				n.Length *= scale * rng.Uniform(0.5, 1.5)
			}
		})
		a := ref.LogLikelihood(tr)
		b := eng.LogLikelihood(tr)
		return math.Abs(a-b) <= 1e-8*math.Abs(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTransitionCacheEffectiveness(t *testing.T) {
	fx := newFixture(t, 9, phylo.Nucleotide, 4, 10, 300)
	eng, _ := New(fx.data, fx.model, fx.rates)
	// Exercise the transition cache in isolation: with incremental
	// re-evaluation on, repeated same-tree evaluations skip the pruning
	// pass entirely and never consult the cache.
	eng.SetIncremental(false)
	eng.LogLikelihood(fx.tree)
	missesAfterFirst := eng.CacheMisses
	// Re-evaluating the same tree must be a pure cache hit.
	for i := 0; i < 5; i++ {
		eng.LogLikelihood(fx.tree)
	}
	if eng.CacheMisses != missesAfterFirst {
		t.Errorf("repeated evaluation missed the transition cache: %d → %d",
			missesAfterFirst, eng.CacheMisses)
	}
	if eng.CacheHits == 0 {
		t.Error("no cache hits recorded")
	}
}

func TestCacheEviction(t *testing.T) {
	fx := newFixture(t, 10, phylo.Nucleotide, 1, 6, 100)
	eng, _ := New(fx.data, fx.model, fx.rates)
	eng.pmats.cap = 8
	// Probe more distinct branch lengths than the cap.
	for i := 1; i <= 50; i++ {
		eng.transition(float64(i)/100, false)
	}
	if eng.pmats.size() > 8 {
		t.Errorf("cache grew to %d entries past cap 8", eng.pmats.size())
	}
	if eng.pmats.evictions == 0 {
		t.Error("no evictions recorded despite probing past the cap")
	}
	// LRU order: the most recently probed lengths must be resident.
	for i := 43; i <= 50; i++ {
		if _, ok := eng.pmats.get(float64(i)/100, false); !ok {
			t.Errorf("recently used length %v was evicted", float64(i)/100)
		}
	}
	// Still correct after eviction.
	ref, _ := phylo.NewLikelihood(fx.data, fx.model, fx.rates)
	a, b := ref.LogLikelihood(fx.tree), eng.LogLikelihood(fx.tree)
	if math.Abs(a-b) > 1e-8*math.Abs(a) {
		t.Errorf("post-eviction mismatch: %v vs %v", b, a)
	}
}

func TestTypeMismatchRejected(t *testing.T) {
	fx := newFixture(t, 11, phylo.Nucleotide, 1, 6, 100)
	aa, _ := phylo.NewPoissonAA()
	if _, err := New(fx.data, aa, fx.rates); err == nil {
		t.Error("expected error pairing nucleotide data with amino acid model")
	}
}

func TestMissingDataAgreement(t *testing.T) {
	al := &phylo.Alignment{
		Type:  phylo.Nucleotide,
		Names: []string{"a", "b", "c", "d"},
		Seqs:  []string{"AC-TNNAC", "ACGTACGT", "ANGTAC-T", "TCGAACGT"},
	}
	pd, err := al.Compile()
	if err != nil {
		t.Fatal(err)
	}
	m, _ := phylo.NewJC69()
	rs, _ := phylo.NewSiteRates(phylo.RateGamma, 0.5, 0, 4)
	tr, err := phylo.ParseNewick("((a:0.1,b:0.2):0.05,c:0.3,d:0.15);",
		map[string]int{"a": 0, "b": 1, "c": 2, "d": 3})
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := phylo.NewLikelihood(pd, m, rs)
	eng, _ := New(pd, m, rs)
	a, b := ref.LogLikelihood(tr), eng.LogLikelihood(tr)
	if math.Abs(a-b) > 1e-10*math.Abs(a) {
		t.Errorf("missing-data mismatch: %v vs %v", b, a)
	}
}

// BenchmarkBeagleVsReference quantifies the speedup the optimized
// engine delivers on the GA's dominant access pattern (re-evaluating a
// tree whose branch lengths are mostly unchanged).
func BenchmarkBeagleVsReference(b *testing.B) {
	fx := newFixture(b, 12, phylo.Nucleotide, 4, 16, 1000)
	b.Run("reference", func(b *testing.B) {
		ref, _ := phylo.NewLikelihood(fx.data, fx.model, fx.rates)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ref.LogLikelihood(fx.tree)
		}
	})
	b.Run("beagle", func(b *testing.B) {
		eng, _ := New(fx.data, fx.model, fx.rates)
		// Incremental reuse off: this benchmark isolates the kernel +
		// transition-cache speedup on a full pruning pass. The
		// incremental gain is measured by BenchmarkSearchEval50.
		eng.SetIncremental(false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.LogLikelihood(fx.tree)
		}
	})
}

func TestSearchRunsOnBeagle(t *testing.T) {
	// The GA search accepts the optimized backend through the
	// Evaluator interface and produces a valid tree.
	fx := newFixture(t, 21, phylo.Nucleotide, 4, 9, 400)
	eng, err := New(fx.data, fx.model, fx.rates)
	if err != nil {
		t.Fatal(err)
	}
	cfg := phylo.DefaultSearchConfig()
	cfg.MaxGenerations = 150
	cfg.StagnationGenerations = 50
	cfg.AttachmentsPerTaxon = 6
	res, err := phylo.SearchWith(eng, phylo.TaxonNames(9), cfg, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.BestTree.Check(); err != nil {
		t.Fatal(err)
	}
	// Verify the result against the reference engine.
	ref, _ := phylo.NewLikelihood(fx.data, fx.model, fx.rates)
	if got := ref.LogLikelihood(res.BestTree); math.Abs(got-res.BestLogL) > 1e-6*math.Abs(got) {
		t.Errorf("beagle-search logL %v disagrees with reference %v", res.BestLogL, got)
	}
	if res.Work <= 0 {
		t.Error("no work accounted")
	}
}
