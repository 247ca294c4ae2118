package forest

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"lattice/internal/sim"
)

// syntheticDataset builds a regression problem with known structure:
// y = 10*x0 + 5*onehot(x1==2) + noise; x2 is pure noise.
func syntheticDataset(n int, seed int64) *Dataset {
	rng := sim.NewRNG(seed)
	schema := &Schema{
		Names: []string{"signal", "category", "noise"},
		Kinds: []FeatureKind{Numeric, Categorical, Numeric},
	}
	ds := &Dataset{Schema: schema}
	for i := 0; i < n; i++ {
		x0 := rng.Float64()
		x1 := float64(rng.Intn(4))
		x2 := rng.Float64()
		y := 10*x0 + rng.Normal(0, 0.3)
		if x1 == 2 {
			y += 5
		}
		ds.X = append(ds.X, []float64{x0, x1, x2})
		ds.Y = append(ds.Y, y)
	}
	return ds
}

func TestTrainValidation(t *testing.T) {
	ds := syntheticDataset(50, 1)
	if _, err := Train(ds, Config{NumTrees: 0}); err == nil {
		t.Error("expected error for zero trees")
	}
	bad := &Dataset{Schema: ds.Schema}
	if _, err := Train(bad, DefaultConfig()); err == nil {
		t.Error("expected error for empty dataset")
	}
	ragged := syntheticDataset(10, 2)
	ragged.X[3] = []float64{1}
	if _, err := Train(ragged, DefaultConfig()); err == nil {
		t.Error("expected error for ragged row")
	}
	badCat := syntheticDataset(10, 3)
	badCat.X[0][1] = 2.5
	if _, err := Train(badCat, DefaultConfig()); err == nil {
		t.Error("expected error for non-integer categorical")
	}
	badCat2 := syntheticDataset(10, 4)
	badCat2.X[0][1] = 64
	if _, err := Train(badCat2, DefaultConfig()); err == nil {
		t.Error("expected error for categorical ≥ 64")
	}
}

// TestNonFiniteRejected: a NaN makes the split comparator inconsistent
// (silently wrong trees) and an infinity poisons every sum, so neither
// may enter a dataset by Append or pass Validate, in a covariate of
// either kind or in the response. The error names the row and feature.
func TestNonFiniteRejected(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for j, name := range []string{"signal", "category", "noise"} {
			ds := syntheticDataset(10, 5)
			ds.X[7][j] = bad
			err := ds.Validate()
			if err == nil {
				t.Errorf("Validate accepted %v in feature %q", bad, name)
			} else if msg := err.Error(); !strings.Contains(msg, "row 7") || !strings.Contains(msg, name) {
				t.Errorf("Validate error %q does not name row 7 and feature %q", msg, name)
			}
			if _, err := Train(ds, DefaultConfig()); err == nil {
				t.Errorf("Train accepted %v in feature %q", bad, name)
			}

			ds = syntheticDataset(10, 5)
			x := []float64{0.5, 1, 0.5}
			x[j] = bad
			err = ds.Append(x, 1)
			if err == nil {
				t.Errorf("Append accepted %v in feature %q", bad, name)
			} else if msg := err.Error(); !strings.Contains(msg, "row 10") || !strings.Contains(msg, name) {
				t.Errorf("Append error %q does not name row 10 and feature %q", msg, name)
			}
			if ds.NumRows() != 10 || len(ds.X) != 10 {
				t.Errorf("rejected Append grew the dataset to %d rows", ds.NumRows())
			}
		}

		ds := syntheticDataset(10, 5)
		ds.Y[3] = bad
		if err := ds.Validate(); err == nil || !strings.Contains(err.Error(), "row 3") {
			t.Errorf("Validate on response %v: got %v, want an error naming row 3", bad, err)
		}
		if err := ds.Append([]float64{0.5, 1, 0.5}, bad); err == nil {
			t.Errorf("Append accepted response %v", bad)
		}
	}
}

func TestForestLearnsSignal(t *testing.T) {
	ds := syntheticDataset(400, 10)
	cfg := DefaultConfig()
	cfg.NumTrees = 200
	cfg.Seed = 7
	f, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pv := f.PercentVarExplained(); pv < 80 {
		t.Errorf("percent variance explained = %.1f, want > 80 on an easy problem", pv)
	}
	// Prediction for a fresh point near the regression surface.
	got := f.Predict([]float64{0.5, 2, 0.1})
	want := 10*0.5 + 5
	if math.Abs(got-want) > 1.5 {
		t.Errorf("Predict = %.2f, want ≈ %.2f", got, want)
	}
	got = f.Predict([]float64{0.9, 0, 0.9})
	want = 9
	if math.Abs(got-want) > 1.5 {
		t.Errorf("Predict = %.2f, want ≈ %.2f", got, want)
	}
}

func TestOOBMSEReasonable(t *testing.T) {
	ds := syntheticDataset(300, 20)
	cfg := DefaultConfig()
	cfg.NumTrees = 150
	cfg.Seed = 8
	f, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.OOBMSE() <= 0 {
		t.Error("OOB MSE should be positive with noisy data")
	}
	if f.OOBMSE() > variance(ds.Y) {
		t.Errorf("OOB MSE %.3f worse than predicting the mean (var %.3f)", f.OOBMSE(), variance(ds.Y))
	}
}

func TestImportanceRanking(t *testing.T) {
	ds := syntheticDataset(400, 30)
	cfg := DefaultConfig()
	cfg.NumTrees = 200
	cfg.Seed = 9
	f, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	imp := f.Importance(1)
	byName := map[string]float64{}
	for _, r := range imp {
		byName[r.Feature] = r.PctIncMSE
	}
	if !(byName["signal"] > byName["category"] && byName["category"] > byName["noise"]) {
		t.Errorf("importance ordering wrong: %v", byName)
	}
	if byName["noise"] > byName["signal"]/4 {
		t.Errorf("noise importance %.1f not ≪ signal %.1f", byName["noise"], byName["signal"])
	}
}

func TestDeterministicAcrossParallelism(t *testing.T) {
	ds := syntheticDataset(200, 40)
	train := func(workers int) *Forest {
		cfg := DefaultConfig()
		cfg.NumTrees = 60
		cfg.Seed = 123
		cfg.Workers = workers
		f, err := Train(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f1 := train(1)
	f8 := train(8)
	probe := []float64{0.3, 1, 0.7}
	if f1.Predict(probe) != f8.Predict(probe) {
		t.Error("prediction differs between 1 and 8 workers")
	}
	if f1.OOBMSE() != f8.OOBMSE() {
		t.Error("OOB MSE differs between 1 and 8 workers")
	}
}

func TestCategoricalSplitUsed(t *testing.T) {
	// A purely categorical signal: the forest must separate category
	// means without any numeric feature.
	rng := sim.NewRNG(50)
	schema := &Schema{Names: []string{"cat"}, Kinds: []FeatureKind{Categorical}}
	ds := &Dataset{Schema: schema}
	means := []float64{0, 10, -5, 3}
	for i := 0; i < 400; i++ {
		c := rng.Intn(4)
		ds.X = append(ds.X, []float64{float64(c)})
		ds.Y = append(ds.Y, means[c]+rng.Normal(0, 0.2))
	}
	cfg := DefaultConfig()
	cfg.NumTrees = 100
	cfg.Seed = 3
	cfg.MTry = 1
	f, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c, m := range means {
		got := f.Predict([]float64{float64(c)})
		if math.Abs(got-m) > 0.5 {
			t.Errorf("category %d predicted %.2f, want ≈ %.1f", c, got, m)
		}
	}
}

func TestPredictMonotoneInSignalProperty(t *testing.T) {
	ds := syntheticDataset(300, 60)
	cfg := DefaultConfig()
	cfg.NumTrees = 100
	cfg.Seed = 11
	f, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Property: predictions stay within the observed response range
	// (forest predictions are means of training responses).
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, y := range ds.Y {
		minY = math.Min(minY, y)
		maxY = math.Max(maxY, y)
	}
	prop := func(a, b, c uint16) bool {
		x := []float64{float64(a%1000) / 1000, float64(b % 4), float64(c%1000) / 1000}
		p := f.Predict(x)
		return p >= minY-1e-9 && p <= maxY+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAppendAndRetrain(t *testing.T) {
	ds := syntheticDataset(100, 70)
	cfg := DefaultConfig()
	cfg.NumTrees = 80
	cfg.Seed = 5
	before, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Append a cluster of new observations in a previously unseen
	// region; retraining should move predictions there.
	for i := 0; i < 60; i++ {
		if err := ds.Append([]float64{0.95, 3, 0.5}, 100); err != nil {
			t.Fatal(err)
		}
	}
	after, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.95, 3, 0.5}
	if !(after.Predict(probe) > before.Predict(probe)+20) {
		t.Errorf("retraining ignored new data: before %.1f after %.1f",
			before.Predict(probe), after.Predict(probe))
	}
	if err := ds.Append([]float64{1}, 1); err == nil {
		t.Error("expected error appending short row")
	}
}

func TestCrossValidate(t *testing.T) {
	ds := syntheticDataset(200, 80)
	cfg := DefaultConfig()
	cfg.NumTrees = 60
	cfg.Seed = 6
	pred, err := CrossValidate(ds, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pred) != ds.NumRows() {
		t.Fatalf("got %d predictions for %d rows", len(pred), ds.NumRows())
	}
	// Held-out predictions should correlate strongly with truth.
	if r := correlation(pred, ds.Y); r < 0.9 {
		t.Errorf("CV correlation = %.3f, want > 0.9", r)
	}
	if _, err := CrossValidate(ds, cfg, 1); err == nil {
		t.Error("expected error for k=1")
	}
	if _, err := CrossValidate(ds, cfg, 10000); err == nil {
		t.Error("expected error for k > n")
	}
}

func correlation(a, b []float64) float64 {
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

func TestMTryDefaultsAndBounds(t *testing.T) {
	ds := syntheticDataset(100, 90)
	cfg := DefaultConfig()
	cfg.NumTrees = 30
	cfg.MTry = 99 // clamped to p
	if _, err := Train(ds, cfg); err != nil {
		t.Fatalf("MTry clamp failed: %v", err)
	}
}

func TestSingleRowDegenerate(t *testing.T) {
	schema := &Schema{Names: []string{"x"}, Kinds: []FeatureKind{Numeric}}
	ds := &Dataset{Schema: schema, X: [][]float64{{1}}, Y: []float64{5}}
	cfg := DefaultConfig()
	cfg.NumTrees = 10
	f, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Predict([]float64{42}); got != 5 {
		t.Errorf("single-row forest predicts %v, want 5", got)
	}
}

func TestGainImportanceAgreesOnLeaders(t *testing.T) {
	ds := syntheticDataset(400, 95)
	cfg := DefaultConfig()
	cfg.NumTrees = 150
	cfg.Seed = 12
	f, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gain := f.GainImportance()
	byName := map[string]float64{}
	var total float64
	for _, r := range gain {
		byName[r.Feature] = r.PctIncMSE
		total += r.PctIncMSE
	}
	if math.Abs(total-100) > 1e-6 {
		t.Errorf("gain shares sum to %.2f, want 100", total)
	}
	if !(byName["signal"] > byName["category"] && byName["category"] > byName["noise"]) {
		t.Errorf("gain ordering wrong: %v", byName)
	}
}
