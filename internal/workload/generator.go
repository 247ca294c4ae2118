package workload

import (
	"fmt"
	"math"

	"lattice/internal/phylo"
	"lattice/internal/sim"
)

// Submission is what a portal user submits in one shot: a job
// specification replicated up to the portal's 2000-replicate limit
// ("the ability to submit up to 2000 job replicates with a single
// submission").
type Submission struct {
	Spec       JobSpec
	Replicates int
	// Bootstrap marks the replicates as bootstrap searches (each
	// resamples the data) rather than independent best-tree searches.
	Bootstrap bool
	// UserEmail identifies the submitter for notifications.
	UserEmail string
	// BatchTag, when set by the service layer, names the batch the
	// submission was accepted as; schedulers stamp it onto the grid
	// jobs they expand so observability (internal/obs) can parent
	// traces and journal events by batch.
	BatchTag string
	// ServiceOnly restricts placement to service-grid resources —
	// clusters and Condor pools behind Globus gatekeepers — and never
	// the BOINC volunteer pool. Workflow engines set it on short
	// setup/reduce stages where volunteer turnaround latency would
	// dwarf the compute.
	ServiceOnly bool
}

// MaxReplicates is the portal's per-submission replicate limit.
const MaxReplicates = 2000

// Validate applies portal-level checks.
func (s *Submission) Validate() error {
	if s.Replicates < 1 || s.Replicates > MaxReplicates {
		return fmt.Errorf("workload: %d replicates outside [1, %d]", s.Replicates, MaxReplicates)
	}
	if s.UserEmail == "" {
		return fmt.Errorf("workload: submission has no user email")
	}
	if err := CheckEmail(s.UserEmail); err != nil {
		return err
	}
	// The largest job expansion can form bundles every replicate's
	// searches; the spec is priced as that job, whose search count must
	// fit an int.
	if s.Spec.SearchReps > math.MaxInt/s.Replicates {
		return fmt.Errorf("workload: %d search replicates × %d replicates overflows int", s.Spec.SearchReps, s.Replicates)
	}
	return s.Spec.validate(s.Spec.SearchReps * s.Replicates)
}

// CheckEmail refuses an address holding a control byte (below 0x20, or
// 0x7f). The address is spliced into job IDs and journal details, and
// the journal separates fields with 0x1f and events with newlines, so
// such a byte could frame one event as two.
func CheckEmail(email string) error {
	for i := 0; i < len(email); i++ {
		if c := email[i]; c < 0x20 || c == 0x7f {
			return fmt.Errorf("workload: user email %q holds control byte %#02x", email, c)
		}
	}
	return nil
}

// Generator draws job specifications and submissions from
// distributions shaped like the population of real GARLI jobs the
// paper's portal served ("approximately 150 GARLI jobs were used as
// training data; these represent a great diversity of 'real' jobs").
// The variable-importance structure of the paper's Figure 2 emerges
// from these choices: almost everyone leaves the category count at
// GARLI's default of 4 (so NumRateCats carries no signal), while
// rate-heterogeneity treatment and data type vary widely and multiply
// per-site cost heavily.
type Generator struct {
	rng  *sim.RNG
	next int64
}

// NewGenerator returns a deterministic generator.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: sim.NewRNG(seed)}
}

// Job draws one job specification.
func (g *Generator) Job() JobSpec {
	r := g.rng
	g.next++
	spec := JobSpec{Seed: g.next}

	// Data type: mostly nucleotide; protein data sets are a modest
	// minority and codon analyses are rare (and, as in practice, run
	// on small data because of their per-site cost).
	switch r.Choice([]float64{0.84, 0.11, 0.05}) {
	case 0:
		spec.DataType = phylo.Nucleotide
		switch r.Choice([]float64{0.45, 0.3, 0.12, 0.13}) {
		case 0:
			spec.SubstModel = "GTR"
		case 1:
			spec.SubstModel = "HKY85"
		case 2:
			spec.SubstModel = "K80"
		default:
			spec.SubstModel = "JC69"
		}
	case 1:
		spec.DataType = phylo.AminoAcid
		if r.Bool(0.7) {
			spec.SubstModel = "empirical"
		} else {
			spec.SubstModel = "poisson"
		}
	default:
		spec.DataType = phylo.Codon
		spec.SubstModel = "GY94"
	}

	// Data size: "modest (a few taxa, short sequences) to massive
	// (hundreds or thousands of taxa, sequences thousands of
	// characters in length)" — a routine mode and a large-project mode
	// (the AToL consortium data sets) so the upper tail is populated
	// rather than owned by one outlier.
	large := r.Bool(0.12)
	if large {
		spec.NumTaxa = 15 + int(r.LogNormal(4.05, 0.25)) // median ~72
		spec.SeqLength = 500 + int(r.LogNormal(7.2, 0.25))
	} else {
		spec.NumTaxa = 5 + int(r.LogNormal(3.3, 0.25)) // median ~32
		spec.SeqLength = 300 + int(r.LogNormal(6.7, 0.25))
	}
	if spec.NumTaxa > 600 {
		spec.NumTaxa = 600
	}
	if spec.SeqLength > 10000 {
		spec.SeqLength = 10000
	}
	if spec.DataType == phylo.AminoAcid {
		// Protein alignments run smaller than nucleotide ones; 20
		// states per site is already a 25-fold cost multiplier.
		if spec.NumTaxa > 60 {
			spec.NumTaxa = 15 + spec.NumTaxa%45
		}
		if spec.SeqLength > 2400 {
			spec.SeqLength = 400 + spec.SeqLength%2000
		}
	}
	if spec.DataType == phylo.Codon {
		// Codon jobs stay small: 61-state likelihoods on large
		// alignments would be weeks per replicate even on the grid.
		if spec.NumTaxa > 30 {
			spec.NumTaxa = 10 + spec.NumTaxa%20
		}
		if spec.SeqLength > 900 {
			spec.SeqLength = 300 + spec.SeqLength%600
		}
		spec.SeqLength -= spec.SeqLength % 3
	}

	// Rate heterogeneity correlates with project seriousness: quick
	// exploratory runs on small data often skip it, while virtually
	// every production-scale analysis models gamma rate variation
	// (usually with invariant sites).
	var hetWeights []float64
	if large {
		hetWeights = []float64{0.05, 0.45, 0.5}
	} else {
		hetWeights = []float64{0.45, 0.33, 0.22}
	}
	switch r.Choice(hetWeights) {
	case 0:
		spec.RateHet = phylo.RateHomogeneous
	case 1:
		spec.RateHet = phylo.RateGamma
	default:
		spec.RateHet = phylo.RateGammaInv
	}
	// NumRateCats is a config value present in every job file;
	// GARLI's default of 4 categories is almost never changed — which
	// is exactly why the paper found NumRateCats to have "almost no
	// importance". (It is inert when RateHet is homogeneous.)
	spec.NumRateCats = 4
	if r.Bool(0.06) {
		spec.NumRateCats = 2 + r.Intn(7) // 2..8
	}
	if spec.RateHet != phylo.RateHomogeneous {
		spec.GammaShape = r.LogNormal(-0.4, 0.5) // median ~0.67
		if spec.RateHet == phylo.RateGammaInv {
			spec.PropInvariant = r.Uniform(0.05, 0.5)
		}
	}

	// Search settings.
	switch r.Choice([]float64{0.6, 0.35, 0.05}) {
	case 0:
		spec.SearchReps = 1
	case 1:
		spec.SearchReps = 2 + r.Intn(3)
	default:
		spec.SearchReps = 5 + r.Intn(6)
	}
	switch r.Choice([]float64{0.7, 0.25, 0.05}) {
	case 0:
		spec.StartingTree = phylo.StartStepwise
	case 1:
		spec.StartingTree = phylo.StartRandom
	default:
		spec.StartingTree = phylo.StartUser
	}
	spec.AttachmentsPerTaxon = 25
	if r.Bool(0.2) {
		spec.AttachmentsPerTaxon = 5 + r.Intn(96)
	}
	return spec
}

// Submission draws a full portal submission: a spec plus a replicate
// count shaped like real usage (single best-tree searches, bootstrap
// batches in the hundreds, and occasional maximal 2000-replicate
// submissions).
func (g *Generator) Submission() Submission {
	r := g.rng
	sub := Submission{Spec: g.Job(), UserEmail: fmt.Sprintf("user%03d@example.edu", r.Intn(200))}
	switch r.Choice([]float64{0.35, 0.4, 0.2, 0.05}) {
	case 0:
		sub.Replicates = 1 + r.Intn(10)
	case 1:
		sub.Replicates = 50 + r.Intn(151) // bootstrap-scale
		sub.Bootstrap = true
	case 2:
		sub.Replicates = 300 + r.Intn(701)
		sub.Bootstrap = true
	default:
		sub.Replicates = MaxReplicates
		sub.Bootstrap = true
	}
	return sub
}

// TrainingJobs draws n jobs and samples a realized runtime for each on
// the reference computer — the raw material of the paper's ~150-job
// training matrix. Jobs arrive in study clusters: a researcher
// typically submits several variations of the same analysis (different
// replicate counts, slightly different alignments), so the matrix
// contains groups of similar rows, as the real portal's did.
func (g *Generator) TrainingJobs(n int) ([]JobSpec, []float64) {
	specs := make([]JobSpec, 0, n)
	secs := make([]float64, 0, n)
	r := g.rng
	for len(specs) < n {
		base := g.Job()
		variants := 2 + r.Intn(5)
		for v := 0; v < variants && len(specs) < n; v++ {
			g.next++
			s := base
			s.Seed = g.next
			if v > 0 {
				// Same study, slightly different data and settings.
				s.NumTaxa = jitterInt(r, base.NumTaxa, 0.1, 4)
				s.SeqLength = jitterInt(r, base.SeqLength, 0.1, 30)
				if s.DataType == phylo.Codon {
					s.SeqLength -= s.SeqLength % 3
				}
				if r.Bool(0.4) {
					s.SearchReps = 1 + r.Intn(4)
				}
			}
			specs = append(specs, s)
			secs = append(secs, ReferenceSeconds(s.SampleWork(r)))
		}
	}
	return specs, secs
}

// jitterInt perturbs v by up to ±frac, with a floor.
func jitterInt(r *sim.RNG, v int, frac float64, floor int) int {
	out := int(float64(v) * r.Uniform(1-frac, 1+frac))
	if out < floor {
		out = floor
	}
	return out
}
