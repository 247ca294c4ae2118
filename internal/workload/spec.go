// Package workload models the GARLI jobs flowing through the paper's
// science portal: the job specification (whose nine analysis
// parameters are the predictor variables of the runtime model), a
// generator that mirrors the researcher population the portal served,
// and a calibrated cost model that converts a specification into the
// computational work a real search performs.
//
// The cost model is validated against the real engine: a test in this
// package runs genuine phylo.Search calls across a spread of small
// specifications and checks that predicted work tracks measured work.
// Large experiments then use the model, which lets the grid simulators
// process the paper's "20,000 CPU years" scale of computation in
// seconds — the substitution is recorded in DESIGN.md.
package workload

import (
	"fmt"
	"math"

	"lattice/internal/phylo"
	"lattice/internal/sim"
)

// JobSpec fully describes one GARLI grid job. The nine fields marked
// (predictor) are the covariates of the paper's random forest runtime
// model (Figure 2).
type JobSpec struct {
	// DataType: nucleotide, amino acid, or codon. (predictor)
	DataType phylo.DataType
	// RateHet: among-site rate heterogeneity treatment. (predictor)
	RateHet phylo.RateHetKind
	// NumRateCats: discrete gamma categories. (predictor)
	NumRateCats int
	// GammaShape is the alpha parameter when RateHet != none.
	GammaShape float64
	// PropInvariant is the invariant-sites proportion for gamma+inv.
	PropInvariant float64
	// SubstModel names the substitution model. (predictor)
	SubstModel string
	// NumTaxa: sequences in the alignment. (predictor)
	NumTaxa int
	// SeqLength: alignment length in characters. (predictor)
	SeqLength int
	// SearchReps: independent search replicates per job. (predictor)
	SearchReps int
	// StartingTree: random / stepwise / user. (predictor)
	StartingTree phylo.StartingTreeKind
	// AttachmentsPerTaxon: stepwise-addition intensity. (predictor)
	AttachmentsPerTaxon int
	// Seed makes data generation and search deterministic.
	Seed int64
}

// Validate applies the same checks as the portal's GARLI validation
// pre-pass applies to parameters (data-file validation is separate).
func (s *JobSpec) Validate() error {
	if s.NumTaxa < 3 {
		return fmt.Errorf("workload: NumTaxa = %d; need at least 3", s.NumTaxa)
	}
	if s.SeqLength < 1 {
		return fmt.Errorf("workload: SeqLength = %d; need at least 1", s.SeqLength)
	}
	if s.DataType == phylo.Codon && s.SeqLength%3 != 0 {
		return fmt.Errorf("workload: codon SeqLength %d not a multiple of 3", s.SeqLength)
	}
	if s.SearchReps < 1 {
		return fmt.Errorf("workload: SearchReps = %d; need at least 1", s.SearchReps)
	}
	if s.RateHet != phylo.RateHomogeneous {
		if s.NumRateCats < 1 {
			return fmt.Errorf("workload: NumRateCats = %d; need at least 1", s.NumRateCats)
		}
		if s.GammaShape <= 0 {
			return fmt.Errorf("workload: GammaShape = %g; must be positive", s.GammaShape)
		}
	}
	if s.RateHet == phylo.RateGammaInv && (s.PropInvariant < 0 || s.PropInvariant >= 1) {
		return fmt.Errorf("workload: PropInvariant = %g; must be in [0,1)", s.PropInvariant)
	}
	if s.StartingTree == phylo.StartStepwise && s.AttachmentsPerTaxon < 1 {
		return fmt.Errorf("workload: AttachmentsPerTaxon = %d with stepwise starting tree", s.AttachmentsPerTaxon)
	}
	return s.checkModel()
}

// checkModel reports the error BuildModel would return, from the data
// type and the model name alone: BuildModel's free parameters are
// constants that every model constructor accepts, so the name is the
// only thing that can be wrong — and checking it builds nothing.
func (s *JobSpec) checkModel() error {
	switch s.DataType {
	case phylo.Nucleotide:
		return phylo.NucModelSpec{Name: s.SubstModel}.CheckName()
	case phylo.AminoAcid:
		return phylo.AAModelSpec{Name: s.SubstModel}.CheckName()
	case phylo.Codon:
		return nil // the codon model is not selected by name
	default:
		return fmt.Errorf("workload: unknown data type %v", s.DataType)
	}
}

// BuildModel constructs the substitution model the spec names.
func (s *JobSpec) BuildModel() (*phylo.Model, error) {
	if err := s.checkModel(); err != nil {
		return nil, err
	}
	switch s.DataType {
	case phylo.Nucleotide:
		return phylo.NucModelSpec{
			Name:  s.SubstModel,
			Kappa: 2.5,
			Rates: [6]float64{1.2, 3.5, 0.9, 1.1, 4.2, 1},
			Freqs: []float64{0.3, 0.2, 0.2, 0.3},
		}.Build()
	case phylo.AminoAcid:
		return phylo.AAModelSpec{Name: s.SubstModel}.Build()
	default: // Codon: checkModel rejected every other data type
		return phylo.CodonModelSpec{Kappa: 2.0, Omega: 0.4}.Build()
	}
}

// BuildRates constructs the spec's site-rate mixture.
func (s *JobSpec) BuildRates() (*phylo.SiteRates, error) {
	return phylo.NewSiteRates(s.RateHet, s.GammaShape, s.PropInvariant, s.NumRateCats)
}

// NumMixtureCats returns the number of likelihood passes per pattern:
// 1 for homogeneous, k for gamma, k+1 for gamma+inv.
func (s *JobSpec) NumMixtureCats() int {
	switch s.RateHet {
	case phylo.RateGamma:
		return s.NumRateCats
	case phylo.RateGammaInv:
		return s.NumRateCats + 1
	default:
		return 1
	}
}

// NumSites returns the number of likelihood sites: characters for
// nucleotide/amino-acid data, codons for codon data.
func (s *JobSpec) NumSites() int {
	if s.DataType == phylo.Codon {
		return s.SeqLength / 3
	}
	return s.SeqLength
}

// generateAlignment simulates a data set matching the spec — the
// stand-in for the researcher's uploaded sequence file, which the cost
// model's calibration test runs the real engine on.
func (s *JobSpec) generateAlignment() (*phylo.Alignment, *phylo.Tree, error) {
	model, err := s.BuildModel()
	if err != nil {
		return nil, nil, err
	}
	rates, err := s.BuildRates()
	if err != nil {
		return nil, nil, err
	}
	rng := sim.NewRNG(s.Seed)
	truth := phylo.RandomTree(phylo.TaxonNames(s.NumTaxa), 0.1, rng)
	al, err := phylo.SimulateAlignment(truth, model, rates, s.NumSites(), rng)
	if err != nil {
		return nil, nil, err
	}
	return al, truth, nil
}

// SearchConfig translates the spec into engine settings.
func (s *JobSpec) SearchConfig() phylo.SearchConfig {
	cfg := phylo.DefaultSearchConfig()
	cfg.SearchReps = s.SearchReps
	cfg.StartingTree = s.StartingTree
	if s.AttachmentsPerTaxon > 0 {
		cfg.AttachmentsPerTaxon = s.AttachmentsPerTaxon
	}
	return cfg
}

// MemoryMB estimates the job's resident memory requirement in
// megabytes: conditional-likelihood arrays dominate
// (patterns × categories × states × 8 bytes × ~2·taxa node buffers).
// The paper notes jobs "can also be memory intensive, requiring
// multiple gigabytes of memory"; the meta-scheduler filters resources
// on this value.
func (s *JobSpec) MemoryMB() int {
	patterns := EstimatePatterns(s)
	cells := float64(patterns) * float64(s.NumMixtureCats()) * float64(s.DataType.NumStates())
	bytes := cells * 8 * float64(2*s.NumTaxa)
	mb := int(bytes/(1<<20)) + 32 // 32 MB floor for program + data
	return mb
}

// EstimatePatterns predicts the number of unique site patterns from
// taxon count and sequence length: patterns saturate toward the site
// count as taxa increase (more taxa → fewer duplicate columns), and
// saturate faster for richer alphabets. The constants are calibrated
// against compiled simulated alignments (see the calibration test).
func EstimatePatterns(s *JobSpec) int {
	sites := float64(s.NumSites())
	var c float64
	switch s.DataType {
	case phylo.Nucleotide:
		c = 20
	case phylo.AminoAcid:
		c = 6
	default:
		c = 3
	}
	frac := 1 - math.Exp(-float64(s.NumTaxa)/c)
	p := int(sites * frac)
	if p < 1 {
		p = 1
	}
	return p
}
