package phylo

import (
	"fmt"
	"testing"

	"lattice/internal/sim"
)

func poolFixture(t *testing.T, seed int64, ntaxa, nsites int) (*PatternData, *Model, *SiteRates, *Tree) {
	t.Helper()
	rng := sim.NewRNG(seed)
	model, err := NewGTR([6]float64{1.1, 3.2, 0.8, 1.3, 4.0, 1}, []float64{0.28, 0.22, 0.26, 0.24})
	if err != nil {
		t.Fatal(err)
	}
	rates, err := NewSiteRates(RateGamma, 0.6, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	tree := RandomTree(TaxonNames(ntaxa), 0.1, rng)
	al, err := SimulateAlignment(tree, model, rates, nsites, rng)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := al.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return pd, model, rates, tree
}

func TestEvaluatorPoolValidation(t *testing.T) {
	factory := func() (Evaluator, error) { return nil, fmt.Errorf("boom") }
	if _, err := NewEvaluatorPool(0, factory); err == nil {
		t.Error("expected error for zero workers")
	}
	if _, err := NewEvaluatorPool(2, nil); err == nil {
		t.Error("expected error for nil factory")
	}
	if _, err := NewEvaluatorPool(2, factory); err == nil {
		t.Error("expected factory error to propagate")
	}
	nilFactory := func() (Evaluator, error) { return nil, nil }
	if _, err := NewEvaluatorPool(1, nilFactory); err == nil {
		t.Error("expected error for nil evaluator from factory")
	}
}

// TestPoolScoreAllMatchesSerial pins the pool to the plain serial loop
// on the reference engine: same scores, bit-identical, any worker
// count, and exact work totals.
func TestPoolScoreAllMatchesSerial(t *testing.T) {
	pd, model, rates, tree := poolFixture(t, 61, 10, 200)
	rng := sim.NewRNG(4)
	trees := make([]*Tree, 16)
	for i := range trees {
		trees[i] = tree.Clone()
		perturbBranches(trees[i], rng)
	}
	serial, err := NewLikelihood(pd, model, rates)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(trees))
	for i, tr := range trees {
		want[i] = serial.LogLikelihood(tr)
	}
	for _, workers := range []int{1, 3, 7} {
		pool, err := NewEvaluatorPool(workers, func() (Evaluator, error) {
			return NewLikelihood(pd, model, rates)
		})
		if err != nil {
			t.Fatal(err)
		}
		got := pool.ScoreAll(trees)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d tree %d: pool %v != serial %v", workers, i, got[i], want[i])
			}
		}
		if pool.TotalWork() != serial.Work {
			t.Errorf("workers=%d: pool work %v != serial work %v", workers, pool.TotalWork(), serial.Work)
		}
	}
}

func TestPoolScoreAllEmpty(t *testing.T) {
	pd, model, rates, _ := poolFixture(t, 67, 6, 100)
	pool, err := NewEvaluatorPool(2, func() (Evaluator, error) {
		return NewLikelihood(pd, model, rates)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := pool.ScoreAll(nil); len(got) != 0 {
		t.Errorf("scoring no trees returned %d scores", len(got))
	}
}

func TestSearchParallelValidation(t *testing.T) {
	cfg := DefaultSearchConfig()
	if _, err := SearchParallel(nil, TaxonNames(4), cfg, sim.NewRNG(1)); err == nil {
		t.Error("expected error for nil pool")
	}
}
