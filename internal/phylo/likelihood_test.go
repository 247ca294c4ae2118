package phylo

import (
	"math"
	"testing"

	"lattice/internal/sim"
)

// bruteForceLogL computes the likelihood of a tree by summing over all
// internal-node state assignments — exponential, but an independent
// oracle for tiny trees.
func bruteForceLogL(t *Tree, data *PatternData, m *Model, rates *SiteRates) float64 {
	S := m.Type.NumStates()
	var internals []*Node
	t.PostOrder(func(n *Node) {
		if !n.IsLeaf() {
			internals = append(internals, n)
		}
	})
	pm := make(map[*Node][]*Matrix)
	t.PostOrder(func(n *Node) {
		if n.Parent == nil {
			return
		}
		for c := 0; c < rates.NumCats(); c++ {
			pm[n] = append(pm[n], transitionMatrix(m.Eigen(), n.Length*rates.Rates[c]))
		}
	})
	var logL float64
	for p := 0; p < data.NumPatterns(); p++ {
		var site float64
		for c := 0; c < rates.NumCats(); c++ {
			assign := make([]int, len(internals))
			var sum float64
			var rec func(k int)
			rec = func(k int) {
				if k == len(internals) {
					states := make(map[*Node]int)
					for i, n := range internals {
						states[n] = assign[i]
					}
					prob := m.Freqs[states[t.Root]]
					ok := true
					t.PostOrder(func(n *Node) {
						if n.Parent == nil || !ok {
							return
						}
						var st int
						if n.IsLeaf() {
							raw := data.States[p*data.NumTaxa+n.Taxon]
							if raw < 0 {
								// Missing: marginalize by summing over states.
								var s2 float64
								for x := 0; x < S; x++ {
									s2 += pm[n][c].At(states[n.Parent], x)
								}
								prob *= s2
								return
							}
							st = int(raw)
						} else {
							st = states[n]
						}
						prob *= pm[n][c].At(states[n.Parent], st)
					})
					sum += prob
					return
				}
				for s := 0; s < S; s++ {
					assign[k] = s
					rec(k + 1)
				}
			}
			rec(0)
			site += rates.Weights[c] * sum
		}
		logL += data.Weights[p] * math.Log(site)
	}
	return logL
}

func fourTaxonTree(t *testing.T) *Tree {
	tr, err := ParseNewick("((a:0.1,b:0.2):0.05,c:0.3,d:0.15);", map[string]int{"a": 0, "b": 1, "c": 2, "d": 3})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestPruningMatchesBruteForce(t *testing.T) {
	a := smallNucAlignment()
	pd, err := a.Compile()
	if err != nil {
		t.Fatal(err)
	}
	tr := fourTaxonTree(t)
	models := []*Model{}
	if m, err := NewJC69(); err == nil {
		models = append(models, m)
	}
	if m, err := NewHKY85(2.5, []float64{0.3, 0.2, 0.2, 0.3}); err == nil {
		models = append(models, m)
	}
	if m, err := NewGTR([6]float64{1, 2, 1.5, 0.7, 4, 1}, []float64{0.25, 0.25, 0.3, 0.2}); err == nil {
		models = append(models, m)
	}
	rateSets := []*SiteRates{}
	if r, err := NewSiteRates(RateHomogeneous, 0, 0, 1); err == nil {
		rateSets = append(rateSets, r)
	}
	if r, err := NewSiteRates(RateGamma, 0.5, 0, 4); err == nil {
		rateSets = append(rateSets, r)
	}
	if r, err := NewSiteRates(RateGammaInv, 0.8, 0.15, 4); err == nil {
		rateSets = append(rateSets, r)
	}
	for _, m := range models {
		for _, rs := range rateSets {
			lk, err := NewLikelihood(pd, m, rs)
			if err != nil {
				t.Fatal(err)
			}
			got := lk.LogLikelihood(tr)
			want := bruteForceLogL(tr, pd, m, rs)
			if !almostEqual(got, want, 1e-8) {
				t.Errorf("%s/%s: pruning %v != brute force %v", m.Name, rs.Kind, got, want)
			}
		}
	}
}

func TestPruningWithMissingData(t *testing.T) {
	a := &Alignment{
		Type:  Nucleotide,
		Names: []string{"a", "b", "c", "d"},
		Seqs:  []string{"AC-T", "ACGT", "ANGT", "TCGA"},
	}
	pd, err := a.Compile()
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewJC69()
	rs, _ := NewSiteRates(RateHomogeneous, 0, 0, 1)
	lk, _ := NewLikelihood(pd, m, rs)
	tr := fourTaxonTree(t)
	got := lk.LogLikelihood(tr)
	want := bruteForceLogL(tr, pd, m, rs)
	if !almostEqual(got, want, 1e-8) {
		t.Errorf("missing data: pruning %v != brute force %v", got, want)
	}
}

func TestLikelihoodInvariantToRerooting(t *testing.T) {
	// Under a reversible model the likelihood must not depend on root
	// placement. Parse two Newick strings for the same unrooted tree
	// rooted at different internal nodes.
	taxa := map[string]int{"a": 0, "b": 1, "c": 2, "d": 3}
	t1, err := ParseNewick("((a:0.1,b:0.2):0.05,c:0.3,d:0.15);", taxa)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := ParseNewick("((c:0.3,d:0.15):0.05,a:0.1,b:0.2);", taxa)
	if err != nil {
		t.Fatal(err)
	}
	pd, _ := smallNucAlignment().Compile()
	m, _ := NewGTR([6]float64{1, 2, 1.5, 0.7, 4, 1}, []float64{0.25, 0.25, 0.3, 0.2})
	rs, _ := NewSiteRates(RateGamma, 0.7, 0, 4)
	lk, _ := NewLikelihood(pd, m, rs)
	l1 := lk.LogLikelihood(t1)
	l2 := lk.LogLikelihood(t2)
	if !almostEqual(l1, l2, 1e-8) {
		t.Errorf("likelihood changed under rerooting: %v vs %v", l1, l2)
	}
}

func TestScalingOnDeepTree(t *testing.T) {
	// A 64-taxon tree with sizable branch lengths would underflow
	// without rescaling; the result must be finite and negative.
	rng := sim.NewRNG(3)
	names := TaxonNames(64)
	tr := RandomTree(names, 0.4, rng)
	m, _ := NewJC69()
	rs, _ := NewSiteRates(RateHomogeneous, 0, 0, 1)
	al, err := SimulateAlignment(tr, m, rs, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := al.Compile()
	if err != nil {
		t.Fatal(err)
	}
	lk, _ := NewLikelihood(pd, m, rs)
	l := lk.LogLikelihood(tr)
	if math.IsInf(l, 0) || math.IsNaN(l) || l >= 0 {
		t.Errorf("deep-tree log-likelihood = %v; scaling failed", l)
	}
}

func TestWorkAccrues(t *testing.T) {
	pd, _ := smallNucAlignment().Compile()
	m, _ := NewJC69()
	rs, _ := NewSiteRates(RateGamma, 1, 0, 4)
	lk, _ := NewLikelihood(pd, m, rs)
	tr := fourTaxonTree(t)
	lk.LogLikelihood(tr)
	w1 := lk.Work
	if w1 <= 0 {
		t.Fatal("no work accrued")
	}
	lk.LogLikelihood(tr)
	if lk.Work <= w1 {
		t.Error("work did not accumulate on second evaluation")
	}
}

func TestWorkScalesWithStatesAndCats(t *testing.T) {
	// Codon likelihood on the same number of patterns must cost far
	// more than nucleotide — the root cause of DataType's importance
	// in the paper's Figure 2.
	rng := sim.NewRNG(9)
	names := TaxonNames(6)
	tr := RandomTree(names, 0.1, rng)

	mn, _ := NewJC69()
	rsn, _ := NewSiteRates(RateHomogeneous, 0, 0, 1)
	aln, _ := SimulateAlignment(tr, mn, rsn, 30, rng)
	pdn, _ := aln.Compile()
	lkn, _ := NewLikelihood(pdn, mn, rsn)
	lkn.LogLikelihood(tr)

	mc, err := NewGY94(2, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	alc, _ := SimulateAlignment(tr, mc, rsn, 30, rng)
	pdc, _ := alc.Compile()
	lkc, _ := NewLikelihood(pdc, mc, rsn)
	lkc.LogLikelihood(tr)

	perPatNuc := lkn.Work / float64(pdn.NumPatterns())
	perPatCodon := lkc.Work / float64(pdc.NumPatterns())
	if perPatCodon < 50*perPatNuc {
		t.Errorf("codon per-pattern work %.0f not ≫ nucleotide %.0f", perPatCodon, perPatNuc)
	}
}

func TestOptimizeBranchImproves(t *testing.T) {
	pd, _ := smallNucAlignment().Compile()
	m, _ := NewJC69()
	rs, _ := NewSiteRates(RateHomogeneous, 0, 0, 1)
	lk, _ := NewLikelihood(pd, m, rs)
	tr := fourTaxonTree(t)
	before := lk.LogLikelihood(tr)
	target := tr.Root.Children[0] // internal edge
	target.Length = 5             // deliberately terrible
	worse := lk.LogLikelihood(tr)
	if worse >= before {
		t.Skip("perturbation did not reduce likelihood; adjust test")
	}
	after := OptimizeBranch(lk, tr, target, 30)
	if after < worse {
		t.Errorf("optimization made things worse: %v < %v", after, worse)
	}
	if after < before-0.5 {
		t.Errorf("optimization failed to recover: %v vs original %v", after, before)
	}
}

func TestMismatchedModelAndData(t *testing.T) {
	pd, _ := smallNucAlignment().Compile()
	m, _ := NewPoissonAA()
	if _, err := NewLikelihood(pd, m, nil); err == nil {
		t.Error("expected error pairing nucleotide data with amino acid model")
	}
}

func TestEvalCostFormula(t *testing.T) {
	// The analytic cost formula must track the measured Work of a
	// real evaluation to within bookkeeping slack.
	rng := sim.NewRNG(21)
	names := TaxonNames(10)
	tr := RandomTree(names, 0.1, rng)
	m, _ := NewJC69()
	rs, _ := NewSiteRates(RateGamma, 0.5, 0, 4)
	al, _ := SimulateAlignment(tr, m, rs, 100, rng)
	pd, _ := al.Compile()
	lk, _ := NewLikelihood(pd, m, rs)
	lk.LogLikelihood(tr)
	predicted := EvalCost(pd.NumPatterns(), 10, 4, 4)
	ratio := lk.Work / predicted
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("EvalCost off by factor %v (work=%v predicted=%v)", ratio, lk.Work, predicted)
	}
}

// TestNewSiteRatesRefusesBadParameters: a gamma shape must be in
// (0, MaxGammaShape] and an invariant share in [0,1). NaN fails every
// ordered comparison, so a check written as "x <= 0" lets it through to
// all-NaN rates or weights.
func TestNewSiteRatesRefusesBadParameters(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		kind    RateHetKind
		shape   float64
		propInv float64
		cats    int
	}{
		{RateGamma, 0, 0, 4},
		{RateGamma, -1, 0, 4},
		{RateGamma, nan, 0, 4},
		{RateGamma, inf, 0, 4},
		{RateGamma, -inf, 0, 4},
		{RateGamma, 1e5, 0, 4},
		{RateGamma, 0.5, 0, 0},
		{RateGammaInv, nan, 0.2, 4},
		{RateGammaInv, inf, 0.2, 4},
		{RateGammaInv, 1e5, 0.2, 4},
		{RateGammaInv, 0.5, -0.1, 4},
		{RateGammaInv, 0.5, 1, 4},
		{RateGammaInv, 0.5, nan, 4},
		{RateGammaInv, 0.5, inf, 4},
		{RateHetKind(7), 0.5, 0, 4},
	} {
		if sr, err := NewSiteRates(tc.kind, tc.shape, tc.propInv, tc.cats); err == nil {
			t.Errorf("NewSiteRates(%v, %g, %g, %d) accepted: rates %v, weights %v",
				tc.kind, tc.shape, tc.propInv, tc.cats, sr.Rates, sr.Weights)
		}
	}
	for _, tc := range []struct {
		kind           RateHetKind
		shape, propInv float64
	}{
		{RateGamma, 1e-3, 0}, {RateGamma, 200, 0}, {RateGamma, MaxGammaShape, 0}, {RateGammaInv, MaxGammaShape, 0.2},
		{RateGammaInv, 0.5, 0}, {RateGammaInv, 0.5, 0.99},
	} {
		sr, err := NewSiteRates(tc.kind, tc.shape, tc.propInv, 4)
		if err != nil {
			t.Fatalf("NewSiteRates(%v, %g, %g, 4): %v", tc.kind, tc.shape, tc.propInv, err)
		}
		for i := range sr.Rates {
			if math.IsNaN(sr.Rates[i]) || math.IsInf(sr.Rates[i], 0) || math.IsNaN(sr.Weights[i]) {
				t.Errorf("NewSiteRates(%v, %g, %g, 4): rates %v, weights %v", tc.kind, tc.shape, tc.propInv, sr.Rates, sr.Weights)
				break
			}
		}
	}
}
