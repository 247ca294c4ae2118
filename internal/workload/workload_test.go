package workload

import (
	"fmt"
	"math"
	"testing"
	"time"

	"lattice/internal/phylo"
	"lattice/internal/sim"
)

func baseSpec() JobSpec {
	return JobSpec{
		DataType:            phylo.Nucleotide,
		RateHet:             phylo.RateGamma,
		NumRateCats:         4,
		GammaShape:          0.7,
		SubstModel:          "HKY85",
		NumTaxa:             8,
		SeqLength:           300,
		SearchReps:          1,
		StartingTree:        phylo.StartStepwise,
		AttachmentsPerTaxon: 10,
		Seed:                1,
	}
}

func TestSpecValidate(t *testing.T) {
	good := baseSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []func(*JobSpec){
		func(s *JobSpec) { s.NumTaxa = 2 },
		func(s *JobSpec) { s.SeqLength = 0 },
		func(s *JobSpec) { s.SearchReps = 0 },
		func(s *JobSpec) { s.GammaShape = -1 },
		func(s *JobSpec) { s.NumRateCats = 0 },
		func(s *JobSpec) { s.RateHet = phylo.RateGammaInv; s.PropInvariant = 1.2 },
		func(s *JobSpec) { s.StartingTree = phylo.StartStepwise; s.AttachmentsPerTaxon = 0 },
		func(s *JobSpec) { s.SubstModel = "NOTAMODEL" },
		func(s *JobSpec) { s.DataType = phylo.Codon; s.SeqLength = 301 },
	}
	for i, mutate := range cases {
		s := baseSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestBuildModelAllTypes(t *testing.T) {
	for _, tc := range []struct {
		dt    phylo.DataType
		model string
	}{
		{phylo.Nucleotide, "JC69"},
		{phylo.Nucleotide, "K80"},
		{phylo.Nucleotide, "HKY85"},
		{phylo.Nucleotide, "GTR"},
		{phylo.AminoAcid, "poisson"},
		{phylo.AminoAcid, "empirical"},
		{phylo.Codon, "GY94"},
	} {
		s := baseSpec()
		s.DataType = tc.dt
		s.SubstModel = tc.model
		if tc.dt == phylo.Codon {
			s.SeqLength = 300
		}
		m, err := s.BuildModel()
		if err != nil {
			t.Errorf("%v/%s: %v", tc.dt, tc.model, err)
			continue
		}
		if m.Type != tc.dt {
			t.Errorf("%v/%s: built model type %v", tc.dt, tc.model, m.Type)
		}
	}
}

// TestValidateAgreesWithBuildModel pins the model-free validation to
// the constructors it does not run: for every (data type, name),
// Validate accepts exactly when BuildModel builds a model, with the
// same error text.
func TestValidateAgreesWithBuildModel(t *testing.T) {
	for _, dt := range []phylo.DataType{phylo.Nucleotide, phylo.AminoAcid, phylo.Codon, phylo.DataType(99)} {
		for _, name := range doorModelNames {
			s := baseSpec()
			s.DataType, s.SubstModel = dt, name
			vErr := s.Validate()
			m, bErr := s.BuildModel()
			if (vErr == nil) != (bErr == nil) || (vErr != nil && vErr.Error() != bErr.Error()) {
				t.Errorf("%v/%q: Validate = %v, BuildModel = %v", dt, name, vErr, bErr)
			}
			if (m != nil) != (bErr == nil) {
				t.Errorf("%v/%q: BuildModel returned model %v with error %v", dt, name, m != nil, bErr)
			}
		}
	}
}

// doorModelNames are the model spellings the door tests judge: every
// accepted spelling, case variants, the empty name, names of another
// data type's models, padded names and a Unicode case fold (the Kelvin
// sign folds to "k").
var doorModelNames = []string{
	"JC", "JC69", "jc", "jc69", "Jc69", "K80", "k80", "K2P", "k2p", "HKY", "hky", "HKY85", "hky85",
	"GTR", "Gtr", "gtr", "poisson", "Poisson", "POISSON", "", "empirical", "Empirical", "EMPIRICAL",
	"dayhoff", "Dayhoff", "jtt", "JTT", "wag", "WAG", "GY94", "gy94", "NOTAMODEL", " GTR", "GTR ",
	"\u212a80", "JC69\x00",
}

// TestDoorModelNames pins what the door says about a model name: the
// nucleotide names match case-insensitively, the amino acid names
// exactly, a codon spec takes any name, and a refusal names the data
// type's model family and the name as given.
func TestDoorModelNames(t *testing.T) {
	accept := map[phylo.DataType]map[string]bool{
		phylo.Nucleotide: {"JC": true, "JC69": true, "jc": true, "jc69": true, "Jc69": true,
			"K80": true, "k80": true, "K2P": true, "k2p": true, "HKY": true, "hky": true,
			"HKY85": true, "hky85": true, "GTR": true, "Gtr": true, "gtr": true},
		phylo.AminoAcid: {"poisson": true, "Poisson": true, "": true, "empirical": true,
			"Empirical": true, "dayhoff": true, "jtt": true, "wag": true},
	}
	family := map[phylo.DataType]string{phylo.Nucleotide: "nucleotide", phylo.AminoAcid: "amino acid"}
	for _, dt := range []phylo.DataType{phylo.Nucleotide, phylo.AminoAcid, phylo.Codon, phylo.DataType(99)} {
		for _, name := range doorModelNames {
			s := baseSpec()
			s.DataType, s.SubstModel = dt, name
			var want string
			switch {
			case dt == phylo.Codon || accept[dt][name]:
			case dt == phylo.DataType(99):
				want = "workload: unknown data type DataType(99)"
			default:
				want = fmt.Sprintf("phylo: unknown %s model %q", family[dt], name)
			}
			got := ""
			if err := s.Validate(); err != nil {
				got = err.Error()
			}
			if got != want {
				t.Errorf("%v/%q: Validate = %q, want %q", dt, name, got, want)
			}
		}
	}
}

func TestValidateDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		dt    phylo.DataType
		model string
	}{
		{phylo.Nucleotide, "HKY85"},
		{phylo.Nucleotide, "GTR"},
		{phylo.Nucleotide, "gtr"}, // case-insensitive without upper-casing a copy
		{phylo.AminoAcid, "empirical"},
		{phylo.Codon, "GY94"},
	} {
		s := baseSpec()
		s.DataType, s.SubstModel = tc.dt, tc.model
		sub := Submission{UserEmail: "u@example.edu", Spec: s, Replicates: 1}
		if err := sub.Validate(); err != nil {
			t.Fatalf("%v/%s: %v", tc.dt, tc.model, err)
		}
		if n := testing.AllocsPerRun(100, func() { _ = s.Validate() }); n != 0 {
			t.Errorf("%v/%s: JobSpec.Validate allocates %v", tc.dt, tc.model, n)
		}
		if n := testing.AllocsPerRun(100, func() { _ = sub.Validate() }); n != 0 {
			t.Errorf("%v/%s: Submission.Validate allocates %v", tc.dt, tc.model, n)
		}
	}
}

func TestGenerateAlignmentMatchesSpec(t *testing.T) {
	s := baseSpec()
	al, truth, err := s.generateAlignment()
	if err != nil {
		t.Fatal(err)
	}
	if al.NumTaxa() != s.NumTaxa || al.Length() != s.SeqLength {
		t.Errorf("alignment %d × %d, want %d × %d", al.NumTaxa(), al.Length(), s.NumTaxa, s.SeqLength)
	}
	if truth.NumTaxa() != s.NumTaxa {
		t.Errorf("truth tree has %d taxa", truth.NumTaxa())
	}
	// Deterministic per seed.
	al2, _, err := s.generateAlignment()
	if err != nil {
		t.Fatal(err)
	}
	if al.Seqs[0] != al2.Seqs[0] {
		t.Error("same seed generated different alignments")
	}
}

func TestMemoryScalesWithJobSize(t *testing.T) {
	small := baseSpec()
	big := baseSpec()
	big.DataType = phylo.Codon
	big.SubstModel = "GY94"
	big.NumTaxa = 500
	big.SeqLength = 30000
	if small.MemoryMB() >= big.MemoryMB() {
		t.Errorf("memory: small %d MB >= big %d MB", small.MemoryMB(), big.MemoryMB())
	}
	if big.MemoryMB() < 1024 {
		t.Errorf("massive codon job needs %d MB; the paper says multiple GB", big.MemoryMB())
	}
}

func TestExpectedWorkOrderings(t *testing.T) {
	base := baseSpec()
	w := base.ExpectedWork()
	if w <= 0 {
		t.Fatal("non-positive work")
	}
	// Each of these changes must increase expected work.
	increase := map[string]func(*JobSpec){
		"more taxa":      func(s *JobSpec) { s.NumTaxa *= 4 },
		"longer seqs":    func(s *JobSpec) { s.SeqLength *= 4 },
		"more reps":      func(s *JobSpec) { s.SearchReps = 4 },
		"codon model":    func(s *JobSpec) { s.DataType = phylo.Codon; s.SubstModel = "GY94" },
		"aa model":       func(s *JobSpec) { s.DataType = phylo.AminoAcid; s.SubstModel = "empirical" },
		"gamma+inv":      func(s *JobSpec) { s.RateHet = phylo.RateGammaInv; s.PropInvariant = 0.2 },
		"more attach":    func(s *JobSpec) { s.AttachmentsPerTaxon = 100 },
		"more rate cats": func(s *JobSpec) { s.NumRateCats = 8 },
	}
	for name, mutate := range increase {
		s := baseSpec()
		mutate(&s)
		if s.ExpectedWork() <= w {
			t.Errorf("%s did not increase work: %.3g vs %.3g", name, s.ExpectedWork(), w)
		}
	}
	// Removing rate heterogeneity must decrease work.
	s := baseSpec()
	s.RateHet = phylo.RateHomogeneous
	if s.ExpectedWork() >= w {
		t.Error("homogeneous rates should cost less than gamma")
	}
}

func TestSampleWorkNoise(t *testing.T) {
	s := baseSpec()
	rng := sim.NewRNG(5)
	var lo, hi float64 = math.Inf(1), 0
	var sum float64
	const n = 300
	for i := 0; i < n; i++ {
		w := s.SampleWork(rng)
		if w <= 0 {
			t.Fatal("non-positive sampled work")
		}
		lo = math.Min(lo, w)
		hi = math.Max(hi, w)
		sum += w
	}
	if hi/lo < 1.5 {
		t.Error("sampled work has implausibly little spread")
	}
	mean := sum / n
	exp := s.ExpectedWork()
	// Log-normal(0, 0.25) has mean e^{0.03} ≈ 1.03.
	if mean < 0.9*exp || mean > 1.25*exp {
		t.Errorf("sampled mean %.3g deviates from expectation %.3g", mean, exp)
	}
}

func TestGeneratorPopulationShape(t *testing.T) {
	g := NewGenerator(1)
	counts := map[phylo.DataType]int{}
	rateCats4 := 0
	rateHetUsers := 0
	var taxaSum int
	const n = 600
	for i := 0; i < n; i++ {
		spec := g.Job()
		if err := spec.Validate(); err != nil {
			t.Fatalf("generated invalid spec: %v (%+v)", err, spec)
		}
		counts[spec.DataType]++
		if spec.RateHet != phylo.RateHomogeneous {
			rateHetUsers++
			if spec.NumRateCats == 4 {
				rateCats4++
			}
		}
		taxaSum += spec.NumTaxa
	}
	if counts[phylo.Nucleotide] < n/3 {
		t.Errorf("nucleotide jobs %d of %d — should dominate", counts[phylo.Nucleotide], n)
	}
	if counts[phylo.Codon] == 0 || counts[phylo.AminoAcid] == 0 {
		t.Error("generator never produced aa or codon jobs")
	}
	// The NumRateCats = 4 default must dominate (the paper's Figure 2
	// depends on it).
	if frac := float64(rateCats4) / float64(rateHetUsers); frac < 0.85 {
		t.Errorf("only %.0f%% of rate-het jobs use 4 categories; default should dominate", 100*frac)
	}
	if avg := float64(taxaSum) / n; avg < 20 || avg > 200 {
		t.Errorf("mean taxa %.1f outside plausible band", avg)
	}
}

func TestGeneratorSubmissions(t *testing.T) {
	g := NewGenerator(2)
	maxSeen := 0
	for i := 0; i < 400; i++ {
		sub := g.Submission()
		if err := sub.Validate(); err != nil {
			t.Fatalf("invalid submission: %v", err)
		}
		if sub.Replicates > maxSeen {
			maxSeen = sub.Replicates
		}
	}
	if maxSeen != MaxReplicates {
		t.Errorf("never generated a maximal %d-replicate submission (max %d)", MaxReplicates, maxSeen)
	}
}

func TestSubmissionValidate(t *testing.T) {
	sub := Submission{Spec: baseSpec(), Replicates: 0, UserEmail: "x@y"}
	if err := sub.Validate(); err == nil {
		t.Error("expected error for zero replicates")
	}
	sub.Replicates = MaxReplicates + 1
	if err := sub.Validate(); err == nil {
		t.Error("expected error above replicate cap")
	}
	sub.Replicates = 10
	sub.UserEmail = ""
	if err := sub.Validate(); err == nil {
		t.Error("expected error for missing email")
	}
	// The largest bundle runs SearchReps × Replicates searches in one
	// job, and that count must fit an int.
	sub.UserEmail = "x@y"
	sub.Spec.SearchReps = math.MaxInt/sub.Replicates + 1
	if err := sub.Validate(); err == nil {
		t.Error("expected error for a bundle search count past int")
	}
	sub.Spec.SearchReps--
	if err := sub.Validate(); err != nil {
		t.Errorf("largest bundle search count that fits an int refused: %v", err)
	}
}

// TestEmailControlBytesRefused: the journal separates fields with 0x1f
// and events with newlines, and a user's email is spliced into job IDs
// and validate details, so an address holding a control byte could
// frame one event as two. Submissions and workflows refuse it; plain
// and non-ASCII addresses still pass.
func TestEmailControlBytesRefused(t *testing.T) {
	workflow := func(email string) *Workflow {
		return &Workflow{Name: "wf", UserEmail: email, Stages: []WorkflowStage{{ID: "search", Spec: baseSpec(), Replicates: 1}}}
	}
	for _, email := range []string{"a\nb@x.org", "a\x1fb@example.org", "a@x.org\r", "\x00@x.org", "a\tb@x.org", "a\x7f@x.org"} {
		sub := Submission{Spec: baseSpec(), Replicates: 1, UserEmail: email}
		if err := sub.Validate(); err == nil {
			t.Errorf("submission from %q validated", email)
		}
		if err := workflow(email).Validate(); err == nil {
			t.Errorf("workflow from %q validated", email)
		}
		if err := CheckEmail(email); err == nil {
			t.Errorf("CheckEmail(%q) passed", email)
		}
	}
	for _, email := range []string{"guest@example.org", "u00042_example_edu@x", "josé@example.org", "a b@x.org", "~@x"} {
		sub := Submission{Spec: baseSpec(), Replicates: 1, UserEmail: email}
		if err := sub.Validate(); err != nil {
			t.Errorf("submission from %q refused: %v", email, err)
		}
		if err := workflow(email).Validate(); err != nil {
			t.Errorf("workflow from %q refused: %v", email, err)
		}
	}
}

func TestTrainingJobsDeterministic(t *testing.T) {
	s1, r1 := NewGenerator(9).TrainingJobs(20)
	s2, r2 := NewGenerator(9).TrainingJobs(20)
	for i := range s1 {
		if s1[i] != s2[i] || r1[i] != r2[i] {
			t.Fatal("training jobs not deterministic")
		}
		if r1[i] <= 0 {
			t.Fatal("non-positive runtime")
		}
	}
}

// TestCostModelTracksRealEngine is the calibration contract: across a
// spread of small specifications the analytic cost model must track
// the measured work of genuine phylo.SearchWith runs — same ordering,
// magnitudes within a small factor. Larger experiments rely on the
// model, so this is the test that keeps them honest.
func TestCostModelTracksRealEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run is slow")
	}
	specs := []JobSpec{
		{DataType: phylo.Nucleotide, RateHet: phylo.RateHomogeneous, SubstModel: "JC69",
			NumTaxa: 6, SeqLength: 120, SearchReps: 1, StartingTree: phylo.StartStepwise, AttachmentsPerTaxon: 8, Seed: 11},
		{DataType: phylo.Nucleotide, RateHet: phylo.RateGamma, NumRateCats: 4, GammaShape: 0.7, SubstModel: "HKY85",
			NumTaxa: 6, SeqLength: 120, SearchReps: 1, StartingTree: phylo.StartStepwise, AttachmentsPerTaxon: 8, Seed: 12},
		{DataType: phylo.Nucleotide, RateHet: phylo.RateGamma, NumRateCats: 4, GammaShape: 0.7, SubstModel: "HKY85",
			NumTaxa: 12, SeqLength: 120, SearchReps: 1, StartingTree: phylo.StartStepwise, AttachmentsPerTaxon: 8, Seed: 13},
		{DataType: phylo.AminoAcid, RateHet: phylo.RateHomogeneous, SubstModel: "poisson",
			NumTaxa: 6, SeqLength: 90, SearchReps: 1, StartingTree: phylo.StartStepwise, AttachmentsPerTaxon: 8, Seed: 14},
		{DataType: phylo.Nucleotide, RateHet: phylo.RateGammaInv, NumRateCats: 4, GammaShape: 0.7, PropInvariant: 0.2, SubstModel: "GTR",
			NumTaxa: 8, SeqLength: 200, SearchReps: 2, StartingTree: phylo.StartRandom, Seed: 15},
		{DataType: phylo.Nucleotide, RateHet: phylo.RateGamma, NumRateCats: 4, GammaShape: 0.7, SubstModel: "K80",
			NumTaxa: 9, SeqLength: 400, SearchReps: 1, StartingTree: phylo.StartStepwise, AttachmentsPerTaxon: 20, Seed: 16},
	}
	var logRatios []float64
	var predicted, measured []float64
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		al, _, err := s.generateAlignment()
		if err != nil {
			t.Fatal(err)
		}
		pd, err := al.Compile()
		if err != nil {
			t.Fatal(err)
		}
		model, _ := s.BuildModel()
		rates, _ := s.BuildRates()
		lk, err := phylo.NewLikelihood(pd, model, rates)
		if err != nil {
			t.Fatal(err)
		}
		res, err := phylo.SearchWith(lk, al.Names, s.SearchConfig(), sim.NewRNG(s.Seed))
		if err != nil {
			t.Fatal(err)
		}
		pred := s.ExpectedWork()
		ratio := res.Work / pred
		t.Logf("spec %d (%v/%v taxa=%d): measured %.3g predicted %.3g ratio %.2f",
			i, s.DataType, s.RateHet, s.NumTaxa, res.Work, pred, ratio)
		if ratio < 0.2 || ratio > 5 {
			t.Errorf("spec %d: cost model off by %.2f× (allowed 5×)", i, ratio)
		}
		logRatios = append(logRatios, math.Log(ratio))
		predicted = append(predicted, math.Log(pred))
		measured = append(measured, math.Log(res.Work))
	}
	if r := logCorrelation(predicted, measured); r < 0.9 {
		t.Errorf("log-scale correlation between predicted and measured work = %.3f, want > 0.9", r)
	}
}

func logCorrelation(a, b []float64) float64 {
	n := float64(len(a))
	var sa, sb float64
	for i := range a {
		sa += a[i]
		sb += b[i]
	}
	ma, mb := sa/n, sb/n
	var cov, va, vb float64
	for i := range a {
		cov += (a[i] - ma) * (b[i] - mb)
		va += (a[i] - ma) * (a[i] - ma)
		vb += (b[i] - mb) * (b[i] - mb)
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// TestValidateRefusesWhatExpansionCannotPrice: a spec Validate accepts
// must have a memory requirement and a work that are finite, positive
// and, for memory, inside int range — the scheduler expands every
// accepted spec into jobs sized by MemoryMB and SampleWork. A NaN
// float field is refused like an out-of-range one, and a rate
// heterogeneity or starting tree kind no code path knows like an
// unknown data type.
func TestValidateRefusesWhatExpansionCannotPrice(t *testing.T) {
	huge := func(s *JobSpec) {
		s.NumTaxa, s.SeqLength = 50, 1000
		s.NumRateCats = math.MaxInt/2 + 1 // 2^62 on a 64-bit target, 2^30 on a 32-bit one
	}
	for name, mutate := range map[string]func(*JobSpec){
		"rate categories past int memory": huge,
		"gamma+inv categories wrap":       func(s *JobSpec) { s.RateHet = phylo.RateGammaInv; s.PropInvariant = 0.2; s.NumRateCats = math.MaxInt },
		"NaN gamma shape":                 func(s *JobSpec) { s.GammaShape = math.NaN() },
		"infinite gamma shape":            func(s *JobSpec) { s.GammaShape = math.Inf(1) },
		"gamma shape past the bound":      func(s *JobSpec) { s.GammaShape = 1e5 },
		"NaN invariant share":             func(s *JobSpec) { s.RateHet = phylo.RateGammaInv; s.PropInvariant = math.NaN() },
		// Every site its own pattern: the pattern count is the site
		// count, even where that count does not round-trip a float64.
		"sites past int memory":       func(s *JobSpec) { s.NumTaxa, s.SeqLength = 100_000, math.MaxInt },
		"unknown rate heterogeneity":  func(s *JobSpec) { s.RateHet = 7 },
		"negative rate heterogeneity": func(s *JobSpec) { s.RateHet = -1 },
		"unknown starting tree":       func(s *JobSpec) { s.StartingTree = 9 },
		"negative starting tree":      func(s *JobSpec) { s.StartingTree = -1 },
	} {
		s := baseSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted (MemoryMB %d, work %g)", name, s.MemoryMB(), s.ExpectedWork())
		}
	}
}

// TestValidateCostIsConstantTime: NumTaxa reaches Validate from outside,
// unbounded. Validate prices the work in O(1), so a stepwise spec of
// 2^41 taxa (on a 64-bit target) is answered at once, not after the
// hours a per-taxon sum would take; one whose taxon count wraps the
// edge arithmetic is refused.
func TestValidateCostIsConstantTime(t *testing.T) {
	big := baseSpec()
	big.StartingTree, big.AttachmentsPerTaxon = phylo.StartStepwise, 25
	big.NumTaxa = math.MaxInt >> 22
	wrapped := big
	wrapped.NumTaxa = math.MaxInt
	done := make(chan [2]error, 1)
	go func() { done <- [2]error{big.Validate(), wrapped.Validate()} }()
	select {
	case errs := <-done:
		if errs[0] != nil {
			t.Errorf("%d taxa refused: %v", big.NumTaxa, errs[0])
		}
		if errs[1] == nil {
			t.Errorf("%d taxa accepted", wrapped.NumTaxa)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Validate on %d taxa still running after 10 s", big.NumTaxa)
	}
}

// TestGeneratedWorkloadsValidate: every spec and submission the
// generator draws still passes Validate.
func TestGeneratedWorkloadsValidate(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		g := NewGenerator(seed)
		for i := 0; i < 200; i++ {
			if s := g.Job(); s.Validate() != nil {
				t.Fatalf("seed %d: generated spec %+v refused: %v", seed, s, s.Validate())
			}
			if sub := g.Submission(); sub.Validate() != nil {
				t.Fatalf("seed %d: generated submission refused: %v", seed, sub.Validate())
			}
		}
		specs, _ := g.TrainingJobs(50)
		for _, s := range specs {
			if err := s.Validate(); err != nil {
				t.Fatalf("seed %d: training spec %+v refused: %v", seed, s, err)
			}
		}
	}
}
