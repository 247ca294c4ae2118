package estimate

import (
	"math"
	"testing"

	"lattice/internal/forest"
	"lattice/internal/phylo"
	"lattice/internal/workload"
)

func trainedEstimator(t *testing.T, n int) *Estimator {
	t.Helper()
	e, err := Bootstrap(DefaultConfig(), workload.NewGenerator(1), n)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSchemaMatchesFeatures(t *testing.T) {
	s := Schema()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.NumFeatures() != 9 {
		t.Fatalf("schema has %d features; the paper uses 9 predictors", s.NumFeatures())
	}
	gen := workload.NewGenerator(2)
	for i := 0; i < 50; i++ {
		spec := gen.Job()
		row := Features(&spec)
		if len(row) != 9 {
			t.Fatalf("feature row has %d entries", len(row))
		}
	}
}

func TestPredictBeforeTraining(t *testing.T) {
	e := New(DefaultConfig())
	spec := workload.NewGenerator(3).Job()
	if _, err := e.Predict(&spec); err == nil {
		t.Error("expected error predicting with untrained model")
	}
	if err := e.Retrain(); err == nil {
		t.Error("expected error retraining with empty matrix")
	}
}

func TestPredictionAccuracy(t *testing.T) {
	e := trainedEstimator(t, 150)
	// Held-out jobs from the same population: predictions should be
	// within a factor of ~3 for most jobs.
	gen := workload.NewGenerator(99)
	specs, secs := gen.TrainingJobs(60)
	within3 := 0
	for i := range specs {
		pred, err := e.Predict(&specs[i])
		if err != nil {
			t.Fatal(err)
		}
		if pred <= 0 {
			t.Fatalf("non-positive prediction %g", pred)
		}
		if r := pred / secs[i]; r > 1.0/3 && r < 3 {
			within3++
		}
	}
	if frac := float64(within3) / float64(len(specs)); frac < 0.6 {
		t.Errorf("only %.0f%% of held-out predictions within 3×; model too weak", 100*frac)
	}
}

func TestPercentVarianceExplained(t *testing.T) {
	e := trainedEstimator(t, 150)
	st, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports ~93% for its 150-job matrix; our synthetic
	// population should land in the same band on the model scale.
	if st.PctVarExplained < 80 || st.PctVarExplained > 100 {
		t.Errorf("percent variance explained = %.1f, want in [80, 100]", st.PctVarExplained)
	}
	if st.TypicalErrorFactor < 1 || st.TypicalErrorFactor > 4 {
		t.Errorf("typical error factor = %.2f, want in [1, 4]", st.TypicalErrorFactor)
	}
	t.Logf("log-scale %%Var = %.1f (paper: ~93); typical error ×%.2f",
		st.PctVarExplained, st.TypicalErrorFactor)
}

func TestImportanceTopPredictors(t *testing.T) {
	e := trainedEstimator(t, 150)
	imp, err := e.Importance(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(imp) != 9 {
		t.Fatalf("got %d importance rows", len(imp))
	}
	rank := map[string]int{}
	for i, r := range imp {
		rank[r.Feature] = i
	}
	// The defining shape of the paper's Figure 2: rate heterogeneity
	// is the top predictor; the data type signal (carried jointly by
	// DataType and the per-type SubstModel factor) is high; the number
	// of rate categories is noise at the bottom.
	if rank[FeatRateHet] > 1 {
		t.Errorf("RateHetModel ranked %d; should be the top predictor", rank[FeatRateHet])
	}
	dt := rank[FeatDataType]
	if rank[FeatSubstModel] < dt {
		dt = rank[FeatSubstModel]
	}
	if dt > 3 {
		t.Errorf("DataType/SubstModel best rank %d; the data-type signal should be near the top", dt)
	}
	if rank[FeatNumRateCats] < 5 {
		t.Errorf("NumRateCats ranked %d; should be near the bottom", rank[FeatNumRateCats])
	}
	if rank[FeatStartTree] < 5 {
		t.Errorf("StartingTree ranked %d; should be near the bottom", rank[FeatStartTree])
	}
}

func TestContinuousRetrainingImproves(t *testing.T) {
	// Start with a small matrix, then stream in observations and
	// retrain; held-out error should drop.
	gen := workload.NewGenerator(31)
	e, err := Bootstrap(DefaultConfig(), gen, 20)
	if err != nil {
		t.Fatal(err)
	}
	holdGen := workload.NewGenerator(77)
	holdSpecs, holdSecs := holdGen.TrainingJobs(40)
	meanLogErr := func() float64 {
		var s float64
		for i := range holdSpecs {
			p, err := e.Predict(&holdSpecs[i])
			if err != nil {
				t.Fatal(err)
			}
			d := math.Log(p) - math.Log(holdSecs[i])
			s += d * d
		}
		return s / float64(len(holdSpecs))
	}
	before := meanLogErr()
	specs, secs := gen.TrainingJobs(200)
	for i := range specs {
		if err := e.AddObservation(&specs[i], secs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Retrain(); err != nil {
		t.Fatal(err)
	}
	after := meanLogErr()
	if after >= before {
		t.Errorf("retraining on 10× more data did not reduce error: %.3f → %.3f", before, after)
	}
	if e.NumObservations() != 220 {
		t.Errorf("matrix has %d rows, want 220", e.NumObservations())
	}
}

func TestCrossValidate(t *testing.T) {
	e := trainedEstimator(t, 120)
	m, err := e.CrossValidate(5)
	if err != nil {
		t.Fatal(err)
	}
	if m.Correlation < 0.8 {
		t.Errorf("CV log-scale correlation %.3f, want > 0.8", m.Correlation)
	}
	if m.WithinFactor2 < 0.4 {
		t.Errorf("only %.0f%% of CV predictions within 2×", 100*m.WithinFactor2)
	}
	if m.MedianAbsRelError > 1.5 {
		t.Errorf("median relative error %.2f too large", m.MedianAbsRelError)
	}
}

func TestAddObservationValidation(t *testing.T) {
	e := New(DefaultConfig())
	spec := workload.NewGenerator(8).Job()
	if err := e.AddObservation(&spec, -5); err == nil {
		t.Error("expected error for negative runtime")
	}
	if err := e.AddObservation(&spec, 0); err == nil {
		t.Error("expected error for zero runtime")
	}
	// log(+Inf) and log(NaN) must never reach the training matrix.
	if err := e.AddObservation(&spec, math.Inf(1)); err == nil {
		t.Error("expected error for infinite runtime")
	}
	if err := e.AddObservation(&spec, math.NaN()); err == nil {
		t.Error("expected error for NaN runtime")
	}
	if n := e.NumObservations(); n != 0 {
		t.Errorf("rejected observations were stored: %d rows", n)
	}
}

// TestPredictDoesNotAllocate pins the stack-resident feature vector:
// the metascheduler predicts once per job per candidate resource.
func TestPredictDoesNotAllocate(t *testing.T) {
	gen := workload.NewGenerator(9)
	e, err := Bootstrap(forest.Config{NumTrees: 20, MTry: 3, Seed: 1}, gen, 60)
	if err != nil {
		t.Fatal(err)
	}
	spec := gen.Job()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := e.Predict(&spec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Predict allocates %v objects per call, want 0", n)
	}
}

func TestFeaturesEncodeConfigRateCats(t *testing.T) {
	// NumRateCats is the configuration value, present (and inert) even
	// for homogeneous-rate jobs — the default of 4 when unset.
	spec := workload.JobSpec{
		DataType: phylo.Nucleotide, RateHet: phylo.RateHomogeneous,
		SubstModel: "JC69", NumTaxa: 5, SeqLength: 100, SearchReps: 1,
		StartingTree: phylo.StartRandom,
	}
	row := Features(&spec)
	if row[6] != 4 {
		t.Errorf("unset NumRateCats should encode the default 4, got %v", row[6])
	}
	spec.NumRateCats = 6
	if row := Features(&spec); row[6] != 6 {
		t.Errorf("explicit NumRateCats should pass through, got %v", row[6])
	}
}

// TestSubstModelCovariateIsTheCanonicalModel: the SubstModel covariate
// names the model a job runs, not the string it was spelled with.
// Every spelling the door accepts for a model encodes as that model's
// canonical code, a codon job is GY94 whatever its name, and a name
// the door refuses is the unknown bucket.
func TestSubstModelCovariateIsTheCanonicalModel(t *testing.T) {
	for _, tc := range []struct {
		dt   phylo.DataType
		name string
		code float64
	}{
		{phylo.Nucleotide, "JC69", 0}, {phylo.Nucleotide, "jc", 0}, {phylo.Nucleotide, "Jc69", 0},
		{phylo.Nucleotide, "K80", 1}, {phylo.Nucleotide, "k2p", 1}, {phylo.Nucleotide, "K2P", 1},
		{phylo.Nucleotide, "HKY85", 2}, {phylo.Nucleotide, "hky", 2}, {phylo.Nucleotide, "Hky85", 2},
		{phylo.Nucleotide, "GTR", 3}, {phylo.Nucleotide, "gtr", 3}, {phylo.Nucleotide, "Gtr", 3},
		{phylo.AminoAcid, "poisson", 4}, {phylo.AminoAcid, "Poisson", 4}, {phylo.AminoAcid, "", 4},
		{phylo.AminoAcid, "empirical", 5}, {phylo.AminoAcid, "Empirical", 5}, {phylo.AminoAcid, "wag", 5},
		{phylo.AminoAcid, "jtt", 5}, {phylo.AminoAcid, "dayhoff", 5},
		{phylo.Codon, "GY94", 6}, {phylo.Codon, "GTR", 6}, {phylo.Codon, "poisson", 6}, {phylo.Codon, "", 6},
		{phylo.Nucleotide, "poisson", 7}, {phylo.Nucleotide, "GY94", 7}, {phylo.Nucleotide, "", 7},
		{phylo.AminoAcid, "GTR", 7}, {phylo.AminoAcid, "POISSON", 7}, {phylo.DataType(9), "GTR", 7},
	} {
		spec := workload.JobSpec{DataType: tc.dt, SubstModel: tc.name}
		if got := Features(&spec)[4]; got != tc.code {
			t.Errorf("%v/%q: SubstModel covariate %v, want %v", tc.dt, tc.name, got, tc.code)
		}
	}
}

// FuzzSubstModelCovariate checks the door, the model builder and the
// covariate against one another over arbitrary names: Validate accepts
// exactly when BuildModel builds, and an accepted spec's covariate is
// the code of the model BuildModel built.
func FuzzSubstModelCovariate(f *testing.F) {
	for _, name := range []string{"GTR", "gtr", "hky85", "K2P", "jc", "poisson", "Poisson", "", "wag", "WAG", "GY94", "K80", " GTR"} {
		for dt := 0; dt < 4; dt++ {
			f.Add(dt, name)
		}
	}
	// The model each code names, by the name its constructor gives it.
	built := map[string]float64{"JC69": 0, "K80": 1, "HKY85": 2, "GTR": 3, "Poisson": 4, "EmpiricalAA": 5, "GY94": 6}
	f.Fuzz(func(t *testing.T, dt int, name string) {
		spec := workload.JobSpec{
			DataType: phylo.DataType(dt), SubstModel: name, RateHet: phylo.RateHomogeneous,
			NumTaxa: 5, SeqLength: 300, SearchReps: 1, StartingTree: phylo.StartRandom,
		}
		vErr := spec.Validate()
		m, bErr := spec.BuildModel()
		if (vErr == nil) != (bErr == nil) {
			t.Fatalf("%v/%q: Validate = %v, BuildModel = %v", spec.DataType, name, vErr, bErr)
		}
		code := Features(&spec)[4]
		if bErr != nil {
			if code != 7 {
				t.Fatalf("%v/%q: refused name encodes as %v, want the unknown code 7", spec.DataType, name, code)
			}
			return
		}
		if want, ok := built[m.Name]; !ok || code != want {
			t.Fatalf("%v/%q: covariate %v, but BuildModel built %s", spec.DataType, name, code, m.Name)
		}
	})
}
