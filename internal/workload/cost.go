package workload

import (
	"lattice/internal/lrm"
	"lattice/internal/phylo"
	"lattice/internal/sim"
)

// Work units are likelihood cell updates (see phylo.Likelihood.Work).

// costParams are the calibrated constants of the analytic cost model.
// They mirror the search engine's structure: evaluations per GA
// generation, generations to termination, stepwise-addition cost and
// the final branch-length polish. TestCostModelTracksRealEngine keeps
// them honest against real phylo.SearchWith runs.
type costParams struct {
	gensBase     float64 // stagnation floor
	gensPerTaxon float64 // extra productive generations per taxon
	polishSweeps float64 // expected final-polish sweeps
	noiseSigma   float64 // log-normal run-to-run spread
}

var defaultCost = costParams{
	gensBase:     240,
	gensPerTaxon: 14,
	polishSweeps: 2,
	noiseSigma:   0.35,
}

// ExpectedWork returns the mean computational work of the job in cell
// updates, without run-to-run noise. It is the deterministic core of
// the cost model.
func (s *JobSpec) ExpectedWork() float64 { return s.work(EstimatePatterns(s)) }

// work is ExpectedWork over the given number of site patterns.
func (s *JobSpec) work(patterns int) float64 {
	cats := s.NumMixtureCats()
	states := s.DataType.NumStates()
	n := s.NumTaxa
	cfg := s.SearchConfig()
	p := defaultCost

	perEval := phylo.EvalCost(patterns, n, states, cats)

	// Starting tree.
	var startWork float64
	switch s.StartingTree {
	case phylo.StartStepwise:
		// Σ_{i=4..n} min(A, 2i−4)·EvalCost(patterns, i, …), where
		// EvalCost(…, i, …) is (2i−3) edges of perEdge cells each.
		perEdge := float64(cats) * float64(states) * float64(states) * (float64(patterns) + 1)
		startWork = stepwiseEdgeEvals(n, cfg.AttachmentsPerTaxon) * perEdge
	default:
		startWork = float64(cfg.PopulationSize) * perEval
	}

	// GA generations: stagnation floor plus productive improvements
	// that scale with tree size, capped by the generation limit.
	gens := p.gensBase + p.gensPerTaxon*float64(n-3)
	if max := float64(cfg.MaxGenerations); gens > max {
		gens = max
	}
	// Evaluations per generation: OptimizeBranch does 1 baseline +
	// 5 coarse-scan + 2 golden-init + iterations refinement evals.
	evalsPerGen := float64(8 + cfg.BrlenOptIterations)
	gaWork := gens * evalsPerGen * perEval

	// Final polish: sweeps over all 2n-3 branches.
	polishIters := cfg.BrlenOptIterations
	if polishIters < 6 {
		polishIters = 6
	}
	polishWork := p.polishSweeps * float64(2*n-3) * float64(8+polishIters) * perEval

	return float64(s.SearchReps) * (startWork + gaWork + polishWork)
}

// stepwiseEdgeEvals is Σ_{i=4..n} min(a, 2i−4)·(2i−3): stepwise
// addition scores taxon i at min(a, 2i−4) of its tree's 2i−4 edges,
// each score touching all 2i−3 edges of the grown tree. Taxon i tries
// every edge while 2i−4 ≤ a, up to i = m = a/2+2, and a of them after,
// so the sum is two polynomials in n and a, worked in O(1).
//
// Every term is an integer, so while the stepwise start's work — this
// sum times the cells per edge, which is at least 32 — stays below
// 2^53, each product and partial sum here is exact and equals the
// per-taxon loop it replaces bit for bit (the 3× intermediate of the
// first polynomial is at most 3/32 of that work). Above 2^53 both round,
// not necessarily alike.
func stepwiseEdgeEvals(n, a int) float64 {
	m := min(n, a/2+2)
	var sum float64
	if m >= 4 {
		j := float64(m - 2) // Σ_{i=4..m} (2i−4)(2i−3) = j(j+1)(4j+5)/3 − 6
		sum = j*(j+1)*(4*j+5)/3 - 6
	}
	if lo := max(m+1, 4); n >= lo { // a·Σ_{i=lo..n} (2i−3)
		sum += float64(a) * float64(n-lo+1) * (float64(n) + float64(lo-3))
	}
	return sum
}

// SampleWork returns a realized work amount: the expectation with
// log-normal run-to-run noise (genetic-algorithm termination is
// stochastic). Deterministic per RNG stream.
func (s *JobSpec) SampleWork(rng *sim.RNG) float64 {
	return s.ExpectedWork() * rng.LogNormal(0, defaultCost.noiseSigma)
}

// ReferenceSeconds converts work in cell updates to seconds on the
// reference computer (speed 1.0, lrm.ReferenceCellsPerSecond).
func ReferenceSeconds(work float64) float64 {
	return work / lrm.ReferenceCellsPerSecond
}
