package workload

import (
	"math"
	"testing"
	"time"

	"lattice/internal/phylo"
)

// loopStartWork is the stepwise start's work as ExpectedWork once
// summed it, one loop step per added taxon: the oracle for its closed
// form.
func loopStartWork(s *JobSpec) float64 {
	patterns, cats, states := EstimatePatterns(s), s.NumMixtureCats(), s.DataType.NumStates()
	cfg := s.SearchConfig()
	var startWork float64
	for i := 4; i <= s.NumTaxa; i++ {
		startWork += stepwiseTerm(cfg.AttachmentsPerTaxon, i, patterns, states, cats)
	}
	return startWork
}

// stepwiseTerm is the oracle loop's step for taxon i.
func stepwiseTerm(attach, i, patterns, states, cats int) float64 {
	tries := attach
	if edges := 2*i - 4; tries > edges {
		tries = edges
	}
	return float64(tries) * phylo.EvalCost(patterns, i, states, cats)
}

// oracleWork is ExpectedWork as it read with the per-taxon loop, given
// the loop's stepwise start work.
func oracleWork(s *JobSpec, stepwiseStart float64) float64 {
	patterns := EstimatePatterns(s)
	cats := s.NumMixtureCats()
	states := s.DataType.NumStates()
	n := s.NumTaxa
	cfg := s.SearchConfig()
	p := defaultCost

	perEval := phylo.EvalCost(patterns, n, states, cats)

	var startWork float64
	switch s.StartingTree {
	case phylo.StartStepwise:
		startWork = stepwiseStart
	default:
		startWork = float64(cfg.PopulationSize) * perEval
	}

	gens := p.gensBase + p.gensPerTaxon*float64(n-3)
	if max := float64(cfg.MaxGenerations); gens > max {
		gens = max
	}
	evalsPerGen := float64(8 + cfg.BrlenOptIterations)
	gaWork := gens * evalsPerGen * perEval

	polishIters := cfg.BrlenOptIterations
	if polishIters < 6 {
		polishIters = 6
	}
	polishWork := p.polishSweeps * float64(2*n-3) * float64(8+polishIters) * perEval

	return float64(s.SearchReps) * (startWork + gaWork + polishWork)
}

// exactBelow is 2^53: a stepwise start work below it is an integer the
// loop sums exactly, and there the closed form must match it bit for
// bit. Above it both round, not necessarily alike.
const exactBelow = 1 << 53

// TestExpectedWorkMatchesStepwiseLoop: the closed-form stepwise start
// prices every spec exactly as the per-taxon loop did — bit for bit on
// 10^6 generator specs (each also priced with every starting tree) and
// on every n ≤ 3000 × A ∈ [1, 101] over three (patterns, states,
// categories) shapes — and no generator spec comes near the 2^53 bound
// under which that identity is proved.
func TestExpectedWorkMatchesStepwiseLoop(t *testing.T) {
	g := NewGenerator(1)
	var maxStart float64
	for i := 0; i < 1_000_000; i++ {
		s := g.Job()
		if p := EstimatePatterns(&s); p < 1 || p > s.NumSites() {
			t.Fatalf("spec %+v: %d patterns on %d sites", s, p, s.NumSites())
		}
		start := loopStartWork(&s)
		maxStart = max(maxStart, start)
		for _, st := range []phylo.StartingTreeKind{phylo.StartRandom, phylo.StartStepwise, phylo.StartUser} {
			s.StartingTree = st
			if got, want := s.ExpectedWork(), oracleWork(&s, start); got != want {
				t.Fatalf("spec %+v: ExpectedWork %v, loop %v", s, got, want)
			}
		}
	}
	if maxStart >= exactBelow/1024 {
		t.Errorf("a generator spec's stepwise start work reached %g, within 2^10 of 2^53", maxStart)
	}
	t.Logf("largest generator stepwise start work: %.3g", maxStart)

	shapes := []JobSpec{
		{DataType: phylo.Nucleotide, RateHet: phylo.RateHomogeneous, SubstModel: "JC69", SeqLength: 300},
		{DataType: phylo.AminoAcid, RateHet: phylo.RateGamma, NumRateCats: 4, GammaShape: 0.5, SubstModel: "poisson", SeqLength: 1000},
		{DataType: phylo.Codon, RateHet: phylo.RateGammaInv, NumRateCats: 4, GammaShape: 0.5, PropInvariant: 0.2, SeqLength: 300},
	}
	for _, shape := range shapes {
		for a := 1; a <= 101; a++ {
			s := shape
			s.SearchReps, s.StartingTree, s.AttachmentsPerTaxon = 1, phylo.StartStepwise, a
			// The loop's sum at n is its sum at n−1 plus taxon n's step
			// while the pattern count holds; it is summed afresh when
			// the pattern count moves with n.
			var start float64
			patterns := -1
			for n := 3; n <= 3000; n++ {
				s.NumTaxa = n
				if p := EstimatePatterns(&s); p != patterns {
					patterns, start = p, loopStartWork(&s)
				} else if n >= 4 {
					start += stepwiseTerm(a, n, patterns, s.DataType.NumStates(), s.NumMixtureCats())
				}
				if start >= exactBelow {
					t.Fatalf("sweep left the exact range at %+v", s)
				}
				if got, want := s.ExpectedWork(), oracleWork(&s, start); got != want {
					t.Fatalf("spec %+v: ExpectedWork %v, loop %v", s, got, want)
				}
			}
			if got, want := start, loopStartWork(&s); got != want {
				t.Fatalf("spec %+v: running sum %v, loop %v", s, got, want)
			}
		}
	}
}

// TestExpectedWorkIsConstantTime: pricing a spec costs the same whatever
// its taxon count. A 2·10^8-taxon stepwise spec took the per-taxon loop
// most of a second; the closed form prices it at once.
func TestExpectedWorkIsConstantTime(t *testing.T) {
	s := baseSpec()
	s.NumTaxa, s.AttachmentsPerTaxon = 200_000_000, 25
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	w := s.ExpectedWork()
	if took := time.Since(begin); took > 50*time.Millisecond {
		t.Errorf("ExpectedWork on %d taxa took %v", s.NumTaxa, took)
	}
	if !(w > 0) || math.IsInf(w, 1) {
		t.Errorf("ExpectedWork on %d taxa = %g", s.NumTaxa, w)
	}
}
