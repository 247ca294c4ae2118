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
// them honest against real phylo.Search runs.
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
func (s *JobSpec) ExpectedWork() float64 {
	patterns := EstimatePatterns(s)
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
		for i := 4; i <= n; i++ {
			tries := cfg.AttachmentsPerTaxon
			if edges := 2*i - 4; tries > edges {
				tries = edges
			}
			startWork += float64(tries) * phylo.EvalCost(patterns, i, states, cats)
		}
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

// workBound bounds ExpectedWork from above in O(1), where ExpectedWork
// loops once per taxon on a stepwise start. No evaluation it counts
// costs more than one on the full tree, perEval; the stepwise start
// makes at most AttachmentsPerTaxon of them per added taxon, and the GA
// runs at most MaxGenerations. Every factor is positive on a spec whose
// fields pass Validate, so the work is finite and positive whenever
// this bound is. patterns is at least EstimatePatterns(s).
func (s *JobSpec) workBound(patterns int) float64 {
	cfg := s.SearchConfig()
	n := float64(s.NumTaxa)
	perEval := phylo.EvalCost(patterns, s.NumTaxa, s.DataType.NumStates(), s.NumMixtureCats())
	start := float64(cfg.PopulationSize)
	if s.StartingTree == phylo.StartStepwise {
		start = (n - 3) * float64(cfg.AttachmentsPerTaxon)
	}
	ga := float64(cfg.MaxGenerations) * float64(8+cfg.BrlenOptIterations)
	polish := defaultCost.polishSweeps * (2*n - 3) * float64(8+max(cfg.BrlenOptIterations, 6))
	return float64(s.SearchReps) * (start + ga + polish) * perEval
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
