// Package workload models the GARLI jobs flowing through the paper's
// science portal: the job specification (whose nine analysis
// parameters are the predictor variables of the runtime model), a
// generator that mirrors the researcher population the portal served,
// and a calibrated cost model that converts a specification into the
// computational work a real search performs.
//
// The cost model is validated against the real engine: a test in this
// package runs genuine phylo.SearchWith calls across a spread of small
// specifications and checks that predicted work tracks measured work.
// Large experiments then use the model, which lets the grid simulators
// process the paper's "20,000 CPU years" scale of computation in
// seconds — the substitution is recorded in DESIGN.md.
package workload

import (
	"cmp"
	"fmt"
	"math"
	"strconv"

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

// Param describes one form parameter of a grid application.
type Param struct {
	Name    string `xml:"name,attr"`
	Type    string `xml:"type,attr"` // "int", "float", "choice", "file", "text"
	Label   string `xml:"label"`
	Default string `xml:"default,omitempty"`
	// Options is not omitempty: encoding/xml applies that to each
	// element, so an empty option would not survive a round trip.
	Options  []string `xml:"option"`
	Required bool     `xml:"required,attr"`
	Help     string   `xml:"help,omitempty"`
}

// Params are a GARLI job's seven analysis parameters under GARLI's own
// configuration keys: the portal's form offers them, the command-line
// programs take them as flags, and ParseSpec reads them. Read-only.
var Params = []Param{
	{Name: "datatype", Type: "choice", Label: "Data type", Default: "nucleotide",
		Options: []string{"nucleotide", "aminoacid", "codon"}, Required: true},
	{Name: "ratematrix", Type: "choice", Label: "Substitution model", Default: "GTR",
		Options: phylo.ModelNames(), Required: true},
	{Name: "ratehetmodel", Type: "choice", Label: "Rate heterogeneity", Default: "gamma",
		Options: []string{"none", "gamma", "gamma+inv"}, Required: true},
	{Name: "numratecats", Type: "int", Label: "Number of rate categories", Default: "4"},
	{Name: "searchreps", Type: "int", Label: "Search replicates per job", Default: "1"},
	{Name: "streefname", Type: "choice", Label: "Starting tree", Default: "stepwise",
		Options: []string{"random", "stepwise", "user"}},
	{Name: "attachmentspertaxon", Type: "int", Label: "Attachments per taxon", Default: "25"},
}

// GammaShape and PropInvariant are the gamma shape and the share of
// invariant sites of a job ParseSpec builds: the form chooses a rate
// model, not its parameters.
const (
	GammaShape    = 0.5
	PropInvariant = 0.2
)

// ParseSpec builds a job from its analysis parameters. value returns
// the setting of the parameter it is given by name, "" for one left
// unset, which takes its default from Params. The gamma shape is
// GammaShape unless the rates are homogeneous, the invariant share
// PropInvariant for gamma+inv, and the seed 1. The data dimensions are
// the caller's to set, from the alignment, before Validate.
func ParseSpec(value func(name string) string) (JobSpec, error) {
	v := make(map[string]string, len(Params))
	for _, p := range Params {
		v[p.Name] = cmp.Or(value(p.Name), p.Default)
	}
	s := JobSpec{SubstModel: v["ratematrix"], Seed: 1}
	var err error
	if s.DataType, err = phylo.ParseDataType(v["datatype"]); err != nil {
		return JobSpec{}, err
	}
	if s.RateHet, err = phylo.ParseRateHetKind(v["ratehetmodel"]); err != nil {
		return JobSpec{}, err
	}
	if s.RateHet != phylo.RateHomogeneous {
		s.GammaShape = GammaShape
	}
	if s.RateHet == phylo.RateGammaInv {
		s.PropInvariant = PropInvariant
	}
	for _, f := range []struct {
		name string
		to   *int
	}{
		{"numratecats", &s.NumRateCats},
		{"searchreps", &s.SearchReps},
		{"attachmentspertaxon", &s.AttachmentsPerTaxon},
	} {
		if *f.to, err = strconv.Atoi(v[f.name]); err != nil {
			return JobSpec{}, fmt.Errorf("parameter %s: %w", f.name, err)
		}
	}
	if s.StartingTree, err = phylo.ParseStartingTreeKind(v["streefname"]); err != nil {
		return JobSpec{}, err
	}
	return s, nil
}

// Validate applies the same checks as the portal's GARLI validation
// pre-pass applies to parameters (data-file validation is separate).
func (s *JobSpec) Validate() error { return s.validate(s.SearchReps) }

// validate is Validate with the work priced at reps search replicates:
// a submission's spec is priced as the largest job its expansion can
// form (Submission.Validate).
func (s *JobSpec) validate(reps int) error {
	if s.NumTaxa < 3 {
		return fmt.Errorf("workload: NumTaxa = %d; need at least 3", s.NumTaxa)
	}
	if s.NumTaxa > math.MaxInt/2 {
		return fmt.Errorf("workload: NumTaxa = %d; its tree's 2n−3 edges overflow int", s.NumTaxa)
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
	switch s.RateHet {
	case phylo.RateHomogeneous:
	case phylo.RateGamma, phylo.RateGammaInv:
		if s.NumRateCats < 1 {
			return fmt.Errorf("workload: NumRateCats = %d; need at least 1", s.NumRateCats)
		}
		if !(s.GammaShape > 0 && s.GammaShape <= phylo.MaxGammaShape) {
			return fmt.Errorf("workload: GammaShape = %g; must be in (0, %g]", s.GammaShape, phylo.MaxGammaShape)
		}
	default:
		return fmt.Errorf("workload: unknown rate heterogeneity kind %v", s.RateHet)
	}
	if s.RateHet == phylo.RateGammaInv && !(s.PropInvariant >= 0 && s.PropInvariant < 1) {
		return fmt.Errorf("workload: PropInvariant = %g; must be in [0,1)", s.PropInvariant)
	}
	switch s.StartingTree {
	case phylo.StartRandom, phylo.StartUser:
	case phylo.StartStepwise:
		if s.AttachmentsPerTaxon < 1 {
			return fmt.Errorf("workload: AttachmentsPerTaxon = %d with stepwise starting tree", s.AttachmentsPerTaxon)
		}
	default:
		return fmt.Errorf("workload: unknown starting tree kind %v", s.StartingTree)
	}
	if _, err := s.model(); err != nil {
		return err
	}
	return s.checkCost(reps)
}

// checkCost refuses a spec the scheduler could not size: the MemoryMB
// and the ExpectedWork that expansion computes, the work at reps search
// replicates. The integer fields are checked one by one above, but
// their products are not: 2^62 gamma categories on 50 taxa passes
// every field check and prices at a negative MemoryMB. Both are worked
// in float64 in O(1), whatever the spec's size, so memory must be
// positive and inside int range and the work finite and positive.
func (s *JobSpec) checkCost(reps int) error {
	patterns := EstimatePatterns(s)
	if mb := s.memoryBytes(patterns)/(1<<20) + memoryFloorMB; !(mb > 0 && mb < math.MaxInt) {
		return fmt.Errorf("workload: memory requirement %g MB is outside (0, %d)", mb, math.MaxInt)
	}
	job := *s
	job.SearchReps = reps
	if w := job.work(patterns); !(w > 0) || math.IsInf(w, 1) {
		return fmt.Errorf("workload: expected work %g cell updates is not finite and positive", w)
	}
	return nil
}

// model returns the substitution model the spec selects, or the
// error BuildModel returns; it builds nothing.
func (s *JobSpec) model() (phylo.ModelID, error) {
	switch s.DataType {
	case phylo.Nucleotide, phylo.AminoAcid, phylo.Codon:
		return phylo.LookupModel(s.DataType, s.SubstModel)
	default:
		return 0, fmt.Errorf("workload: unknown data type %v", s.DataType)
	}
}

// BuildModel constructs the substitution model the spec selects, with
// fixed free parameters every model constructor accepts — so the name
// is the only thing that can be wrong.
func (s *JobSpec) BuildModel() (*phylo.Model, error) {
	id, err := s.model()
	if err != nil {
		return nil, err
	}
	freqs := []float64{0.3, 0.2, 0.2, 0.3}
	switch id {
	case phylo.ModelJC69:
		return phylo.NewJC69()
	case phylo.ModelK80:
		return phylo.NewK80(2.5)
	case phylo.ModelHKY85:
		return phylo.NewHKY85(2.5, freqs)
	case phylo.ModelGTR:
		return phylo.NewGTR([6]float64{1.2, 3.5, 0.9, 1.1, 4.2, 1}, freqs)
	case phylo.ModelPoisson:
		return phylo.NewPoissonAA()
	case phylo.ModelEmpirical:
		return phylo.NewEmpiricalAA()
	default:
		return phylo.NewGY94(2.0, 0.4, nil)
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
	return int(s.memoryBytes(EstimatePatterns(s))/(1<<20)) + memoryFloorMB
}

// memoryFloorMB is the program and data share of MemoryMB.
const memoryFloorMB = 32

// memoryBytes is the conditional-likelihood arrays' size in bytes over
// the given number of site patterns.
func (s *JobSpec) memoryBytes(patterns int) float64 {
	cells := float64(patterns) * float64(s.NumMixtureCats()) * float64(s.DataType.NumStates())
	return cells * 8 * float64(2*s.NumTaxa)
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
	switch p := sites * frac; {
	case p < 1:
		return 1
	case p >= sites: // frac rounded to 1; int(p) may not hold sites
		return s.NumSites()
	default:
		return int(p)
	}
}
