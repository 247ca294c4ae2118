package experiments

import (
	"strings"
	"testing"

	"lattice/internal/estimate"
)

// The experiment tests assert the *shape* of each paper artifact: who
// wins, by roughly what factor, and which effects are near zero. They
// are the executable form of EXPERIMENTS.md.

func TestFig2Shape(t *testing.T) {
	t.Parallel()
	r, err := Fig2(1, 150, 1000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", r)
	if r.rank(estimate.FeatRateHet) > 1 {
		t.Errorf("RateHetModel ranked %d; paper has it first (89.7%%)", r.rank(estimate.FeatRateHet))
	}
	dt := r.rank(estimate.FeatDataType)
	if sm := r.rank(estimate.FeatSubstModel); sm < dt {
		dt = sm
	}
	if dt > 3 {
		t.Errorf("data-type signal ranked %d; paper has DataType second (72.4%%)", dt)
	}
	for _, weak := range []string{estimate.FeatNumRateCats, estimate.FeatStartTree} {
		if r.rank(weak) < 5 {
			t.Errorf("%s ranked %d; paper shows it near zero", weak, r.rank(weak))
		}
	}
	if r.Stats.PctVarExplained < 80 {
		t.Errorf("variance explained %.1f%%; paper reports ~93%%", r.Stats.PctVarExplained)
	}
	if !strings.Contains(r.String(), "Figure 2") {
		t.Error("table header missing")
	}
}

func TestCrossValidationQuality(t *testing.T) {
	t.Parallel()
	r, err := CrossValidation(2, 150, 5)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", r)
	golden(t, "e3cv", r.String())
	if r.Metrics.Correlation < 0.8 {
		t.Errorf("CV correlation %.3f too weak to 'greatly improve scheduling effectiveness'", r.Metrics.Correlation)
	}
	if r.Metrics.WithinFactor2 < 0.5 {
		t.Errorf("only %.0f%% of predictions within 2×", 100*r.Metrics.WithinFactor2)
	}
}

func TestSchedulerRankingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("grid simulation experiment")
	}
	t.Parallel()
	r, err := SchedulerRanking(3)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", r)
	golden(t, "e4", r.String())
	naive := r.Results["naive"]
	full := r.Results["full"]
	if full.MeanTurnround >= naive.MeanTurnround {
		t.Errorf("full policy turnaround %.1f h not better than naive %.1f h",
			full.MeanTurnround.Hours(), naive.MeanTurnround.Hours())
	}
	if full.Completed < naive.Completed {
		t.Errorf("full policy completed %d < naive %d", full.Completed, naive.Completed)
	}
}

func TestStabilityGatingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("grid simulation experiment")
	}
	t.Parallel()
	r, err := StabilityGating(4)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", r)
	golden(t, "e5", r.String())
	ungated := r.Results["no gating (speed-aware)"]
	gated := r.Results["estimate gating (full)"]
	if gated.WastedCPUHours >= ungated.WastedCPUHours {
		t.Errorf("gating did not cut waste: %.0f vs %.0f CPU-h",
			gated.WastedCPUHours, ungated.WastedCPUHours)
	}
	if gated.Completed < ungated.Completed {
		t.Errorf("gating completed fewer jobs: %d vs %d", gated.Completed, ungated.Completed)
	}
}

func TestSchedulingEffectShape(t *testing.T) {
	if testing.Short() {
		t.Skip("grid simulation experiment")
	}
	t.Parallel()
	r, err := SchedulingEffect(5)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", r)
	golden(t, "e3", r.String())
	blind := r.Results["no estimates"]
	informed := r.Results["random-forest estimates"]
	if informed.WastedCPUHours > blind.WastedCPUHours {
		t.Errorf("estimates increased waste: %.0f vs %.0f CPU-h",
			informed.WastedCPUHours, blind.WastedCPUHours)
	}
}

func TestSpeedCalibrationShape(t *testing.T) {
	t.Parallel()
	r, err := SpeedCalibration(6)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", r)
	golden(t, "e6", r.String())
	// Homogeneous clusters must calibrate within a few percent; the
	// heterogeneous pool within ~20%.
	if r.MaxRelError > 0.25 {
		t.Errorf("worst calibration error %.0f%%", 100*r.MaxRelError)
	}
}

func TestBoincDeadlinesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("desktop-grid simulation experiment")
	}
	t.Parallel()
	r, err := BoincDeadlines(7)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", r)
	golden(t, "e7", r.String())
	if r.EstimateDriven >= r.Fixed {
		t.Errorf("estimate-driven deadlines did not cut batch latency: %.0f h vs %.0f h",
			r.EstimateDriven.Hours(), r.Fixed.Hours())
	}
}

func TestWorkFetchShape(t *testing.T) {
	if testing.Short() {
		t.Skip("desktop-grid simulation experiment")
	}
	t.Parallel()
	r, err := WorkFetch(8)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", r)
	golden(t, "e8", r.String())
	if r.Informed >= r.Blind {
		t.Errorf("estimates did not reduce scheduler RPCs per result: %.2f vs %.2f",
			r.Informed, r.Blind)
	}
}

func TestReplicateBundlingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("grid simulation experiment")
	}
	t.Parallel()
	r, err := ReplicateBundling(9)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", r)
	golden(t, "e9", r.String())
	if r.On >= r.Off {
		t.Errorf("bundling did not cut overhead fraction: %.2f vs %.2f", r.On, r.Off)
	}
	if r.Off < 0.05 {
		t.Errorf("unbundled overhead fraction %.2f implausibly low — experiment not exercising overhead", r.Off)
	}
}

func TestPortalScaleShape(t *testing.T) {
	if testing.Short() {
		t.Skip("grid simulation experiment")
	}
	t.Parallel()
	r, err := PortalScale(10)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", r)
	golden(t, "e10", r.String())
	if !(r.Grid < r.Cluster && r.Cluster < r.Single) {
		t.Errorf("scale ordering wrong: grid %.0f h, cluster %.0f h, single %.0f h",
			r.Grid.Hours(), r.Cluster.Hours(), r.Single.Hours())
	}
	if speedup := float64(r.Single) / float64(r.Grid); speedup < 50 {
		t.Errorf("grid speedup over single processor only %.0f×", speedup)
	}
}

func TestContinuousRetrainingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("model retraining experiment")
	}
	t.Parallel()
	r, err := ContinuousRetraining(11)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", r)
	golden(t, "e13", r.String())
	if r.Retrained >= r.Frozen {
		t.Errorf("retraining did not reduce drift error: %.3f vs %.3f", r.Retrained, r.Frozen)
	}
}

func TestCheckpointAlternativeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("grid simulation experiment")
	}
	t.Parallel()
	r, err := CheckpointAlternative(12)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", r)
	golden(t, "e14", r.String())
	if r.CyclingOverhead <= r.GatingWaste {
		t.Errorf("checkpoint cycling shows no extra overhead: %.1f vs %.1f CPU-h",
			r.CyclingOverhead, r.GatingWaste)
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweeps")
	}
	t.Parallel()
	mtry, err := AblationMtry(13, 150)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", mtry)
	golden(t, "abl-mtry", mtry.String())
	size, err := AblationForestSize(14, 150)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", size)
	imp, err := AblationImportanceMethod(15, 150)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", imp)
	golden(t, "abl-imp", imp.String())
	if len(imp.Rows) != 9 {
		t.Errorf("importance ablation has %d rows", len(imp.Rows))
	}
}

func TestSystemScaleShape(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale federation simulation")
	}
	t.Parallel()
	r, err := SystemScale(16)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", r)
	golden(t, "e11", r.String())
	if r.BoincHosts+serviceCores(r) < 5000 {
		t.Errorf("nominal federation size %d below the paper's >5000 cores", r.BoincHosts+serviceCores(r))
	}
	if r.Platforms < 3 {
		t.Errorf("only %d platforms; the paper supports 3", r.Platforms)
	}
	// "In just a few months": the 15-CPU-year batch should land
	// within ~120 days.
	if r.FifteenCPUYears.Hours() > 120*24 {
		t.Errorf("15-CPU-year batch took %.0f days; paper did it in a few months", r.FifteenCPUYears.Hours()/24)
	}
	if r.FifteenCPUYears <= 0 {
		t.Error("batch never completed")
	}
}

// serviceCores approximates the non-BOINC core count of the scaled
// federation for the nominal-size assertion.
func serviceCores(r *SystemScaleResult) int { return r.TotalCores }
