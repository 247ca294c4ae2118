package workload

import (
	"lattice/internal/phylo"
	"lattice/internal/sim"
)

// ReferenceCellsPerSecond is the likelihood-cell throughput of the
// "reference computer" that anchors all resource speed measurements
// (the paper arbitrarily assigns it speed 1.0). Every resource in the
// grid executes work at speed × this rate.
const ReferenceCellsPerSecond = 2.5e8

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

// SampleWork returns a realized work amount: the expectation with
// log-normal run-to-run noise (genetic-algorithm termination is
// stochastic). Deterministic per RNG stream.
func (s *JobSpec) SampleWork(rng *sim.RNG) float64 {
	return s.ExpectedWork() * rng.LogNormal(0, defaultCost.noiseSigma)
}

// ReferenceSeconds converts work in cell updates to seconds on the
// reference computer (speed 1.0).
func ReferenceSeconds(work float64) float64 {
	return work / ReferenceCellsPerSecond
}
