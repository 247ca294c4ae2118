// Package estimate provides a priori GARLI runtime estimates using
// random forests — the paper's Section VI. It encodes a job
// specification's nine analysis parameters as model covariates, trains
// a forest on observed (parameters, runtime) pairs, predicts runtimes
// for new submissions, and continuously folds completed
// reference-cluster replicates back into the training matrix, exactly
// as the paper's system does ("we simply rebuild the model, which is
// immediately available for use with incoming jobs").
package estimate

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"lattice/internal/forest"
	"lattice/internal/workload"
)

// Feature names, in schema order. These are the nine predictor
// variables of the paper's Figure 2.
const (
	FeatRateHet     = "RateHetModel"
	FeatDataType    = "DataType"
	FeatNumTaxa     = "NumTaxa"
	FeatSeqLength   = "SeqLength"
	FeatSubstModel  = "SubstModel"
	FeatSearchReps  = "SearchReps"
	FeatNumRateCats = "NumRateCats"
	FeatStartTree   = "StartingTree"
	FeatAttachments = "AttachmentsPerTaxon"
)

// Schema returns the nine-covariate feature schema.
func Schema() *forest.Schema {
	return &forest.Schema{
		Names: []string{
			FeatRateHet, FeatDataType, FeatNumTaxa, FeatSeqLength,
			FeatSubstModel, FeatSearchReps, FeatNumRateCats,
			FeatStartTree, FeatAttachments,
		},
		Kinds: []forest.FeatureKind{
			forest.Categorical, forest.Categorical, forest.Numeric, forest.Numeric,
			forest.Categorical, forest.Numeric, forest.Numeric,
			forest.Categorical, forest.Numeric,
		},
	}
}

// substModelCodes gives each substitution model a stable categorical
// code.
var substModelCodes = map[string]float64{
	"JC69": 0, "JC": 0,
	"K80": 1, "K2P": 1,
	"HKY85": 2, "HKY": 2,
	"GTR":       3,
	"poisson":   4,
	"empirical": 5, "dayhoff": 5, "jtt": 5, "wag": 5,
	"GY94": 6,
}

// numFeatures is the width of Schema.
const numFeatures = 9

// Features encodes a job specification as a covariate row matching
// Schema.
func Features(s *workload.JobSpec) []float64 {
	x := encode(s)
	return x[:]
}

// encode is Features by value: Predict and AddObservation, which only
// read the row, keep it on their stack.
func encode(s *workload.JobSpec) [numFeatures]float64 {
	code, ok := substModelCodes[s.SubstModel]
	if !ok {
		code = 7 // unknown bucket
	}
	// NumRateCats is the configuration value as written in the job
	// file. It stays at GARLI's default of 4 even when no rate
	// heterogeneity is enabled (where it is inert) — which is why the
	// paper found it to carry almost no importance.
	cats := s.NumRateCats
	if cats == 0 {
		cats = 4
	}
	return [numFeatures]float64{
		float64(s.RateHet),
		float64(s.DataType),
		float64(s.NumTaxa),
		float64(s.SeqLength),
		code,
		float64(s.SearchReps),
		float64(cats),
		float64(s.StartingTree),
		float64(s.AttachmentsPerTaxon),
	}
}

// Config controls the estimator's forest. The paper's production
// setting is 10^4 trees sub-sampling the nine predictors at each node.
type Config struct {
	NumTrees int
	MTry     int
	Seed     int64
}

// DefaultConfig uses a smaller ensemble than the paper's 10^4 so
// interactive retraining stays instant; the Figure 2 bench passes the
// full 10^4.
func DefaultConfig() Config {
	return Config{NumTrees: 500, MTry: 3, Seed: 1}
}

// Estimator predicts job runtimes on the reference computer and keeps
// itself up to date from completed jobs. Safe for concurrent use.
//
// Internally the forest regresses log(runtime): GARLI runtimes span
// minutes to months, and log-scale training preserves relative
// accuracy for short jobs (which drive BOINC deadline and bundling
// decisions) as well as long ones. Reported statistics (percent
// variance explained, importance) are computed on the raw-seconds
// scale to match the paper's reporting.
type Estimator struct {
	mu  sync.Mutex
	ds  *forest.Dataset
	f   *forest.Forest
	cfg Config

	// rawForest regresses raw seconds for paper-style reporting
	// (Stats); rebuilt lazily when the matrix grows.
	rawForest     *forest.Forest
	rawForestRows int
}

// New returns an estimator with an empty training matrix.
func New(cfg Config) *Estimator {
	return &Estimator{
		ds:  &forest.Dataset{Schema: Schema()},
		cfg: cfg,
	}
}

// NumObservations returns the size of the training matrix.
func (e *Estimator) NumObservations() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ds.NumRows()
}

// AddObservation records a completed job's reference-scale runtime
// (seconds on a speed-1.0 machine). It does not retrain; call Retrain
// (cheap, per the paper) when ready.
func (e *Estimator) AddObservation(spec *workload.JobSpec, refSeconds float64) error {
	if refSeconds <= 0 || math.IsNaN(refSeconds) || math.IsInf(refSeconds, 1) {
		return fmt.Errorf("estimate: runtime must be positive and finite, got %g", refSeconds)
	}
	x := encode(spec)
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ds.Append(x[:], math.Log(refSeconds))
}

// Retrain rebuilds the forest from the current training matrix. The
// matrix is snapshotted under the lock and training runs outside it —
// tree growing joins worker channels, and holding mu across that
// would stall every reader for the full training latency.
func (e *Estimator) Retrain() error {
	e.mu.Lock()
	if e.ds.NumRows() < 5 {
		n := e.ds.NumRows()
		e.mu.Unlock()
		return fmt.Errorf("estimate: only %d observations; need at least 5 to train", n)
	}
	ds := e.ds.Clone()
	cfg := e.cfg
	e.mu.Unlock()
	f, err := forest.Train(ds, forest.Config{
		NumTrees:    cfg.NumTrees,
		MTry:        cfg.MTry,
		MinLeafSize: 5,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.f = f
	e.mu.Unlock()
	return nil
}

// Predict returns the estimated runtime of the job in seconds on the
// reference computer (speed 1.0).
func (e *Estimator) Predict(spec *workload.JobSpec) (float64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.f == nil {
		return 0, fmt.Errorf("estimate: model not trained")
	}
	x := encode(spec)
	return math.Exp(e.f.Predict(x[:])), nil
}

// PredictOn scales the reference estimate by a resource's measured
// speed: a speed-2.0 resource finishes the job in half the reference
// time (paper Section VI-E(a)).
func (e *Estimator) PredictOn(spec *workload.JobSpec, speed float64) (float64, error) {
	if speed <= 0 {
		return 0, fmt.Errorf("estimate: resource speed must be positive, got %g", speed)
	}
	ref, err := e.Predict(spec)
	if err != nil {
		return 0, err
	}
	return ref / speed, nil
}

// ModelStats summarizes the estimator's out-of-bag fit.
type ModelStats struct {
	// PctVarExplained is 1 - OOB MSE / Var(y) in percent on the
	// model's log-runtime scale — the headline statistic the paper
	// reports as "approximately 93%".
	PctVarExplained float64
	// TypicalErrorFactor is exp(OOB log-RMSE): the multiplicative
	// factor a typical prediction is off by (1.5 = within ±50%).
	TypicalErrorFactor float64
	// RawPctVarExplained is the same statistic from a forest
	// regressing raw seconds (R randomForest-style); with runtimes
	// spanning four orders of magnitude it is dominated by the few
	// largest jobs and is reported for completeness.
	RawPctVarExplained float64
	// RawRMSESeconds is the raw-scale OOB RMSE in seconds.
	RawRMSESeconds float64
}

// Stats reports the model's out-of-bag fit on both scales; see
// ModelStats. The raw-scale forest is trained on demand and cached
// until the training matrix changes.
func (e *Estimator) Stats() (ModelStats, error) {
	e.mu.Lock()
	if e.f == nil {
		e.mu.Unlock()
		return ModelStats{}, fmt.Errorf("estimate: model not trained")
	}
	if e.rawForest == nil || e.rawForestRows != e.ds.NumRows() {
		// Snapshot the matrix and train outside the lock, like
		// Retrain: the raw-scale fit is a cache fill, not a critical
		// section.
		raw := e.ds.Clone()
		rows := e.ds.NumRows()
		cfg := e.cfg
		e.mu.Unlock()
		for i, y := range raw.Y {
			raw.Y[i] = math.Exp(y)
		}
		f, err := forest.Train(raw, forest.Config{
			NumTrees:    cfg.NumTrees,
			MTry:        cfg.MTry,
			MinLeafSize: 5,
			Seed:        cfg.Seed + 1,
		})
		if err != nil {
			return ModelStats{}, err
		}
		e.mu.Lock()
		e.rawForest = f
		e.rawForestRows = rows
	}
	defer e.mu.Unlock()
	if e.f == nil {
		return ModelStats{}, fmt.Errorf("estimate: model not trained")
	}
	return ModelStats{
		PctVarExplained:    e.f.PercentVarExplained(),
		TypicalErrorFactor: math.Exp(math.Sqrt(e.f.OOBMSE())),
		RawPctVarExplained: e.rawForest.PercentVarExplained(),
		RawRMSESeconds:     math.Sqrt(e.rawForest.OOBMSE()),
	}, nil
}

// Importance returns permutation variable importance (%IncMSE) for the
// nine predictors, sorted descending — the paper's Figure 2.
func (e *Estimator) Importance(seed int64) ([]forest.ImportanceResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.f == nil {
		return nil, fmt.Errorf("estimate: model not trained")
	}
	imp := e.f.Importance(seed)
	sort.Slice(imp, func(i, j int) bool { return imp[i].PctIncMSE > imp[j].PctIncMSE })
	return imp, nil
}

// CVMetrics summarizes k-fold cross-validation of the estimator
// ("in our cross-validation testing, predicted runtimes matched the
// actual runtimes closely enough to greatly improve scheduling
// effectiveness").
type CVMetrics struct {
	Correlation       float64 // Pearson r between log prediction and log truth
	MedianAbsRelError float64 // median |pred - actual| / actual, raw scale
	WithinFactor2     float64 // fraction of jobs predicted within 2× of actual
}

// CrossValidate runs k-fold cross-validation on the current training
// matrix.
func (e *Estimator) CrossValidate(k int) (CVMetrics, error) {
	e.mu.Lock()
	ds := e.ds.Clone()
	cfg := e.cfg
	e.mu.Unlock()
	pred, err := forest.CrossValidate(ds, forest.Config{
		NumTrees:    cfg.NumTrees,
		MTry:        cfg.MTry,
		MinLeafSize: 5,
		Seed:        cfg.Seed,
	}, k)
	if err != nil {
		return CVMetrics{}, err
	}
	var m CVMetrics
	m.Correlation = pearson(pred, ds.Y)
	relErrs := make([]float64, len(pred))
	within := 0
	for i := range pred {
		p, y := math.Exp(pred[i]), math.Exp(ds.Y[i])
		relErrs[i] = math.Abs(p-y) / y
		if ratio := p / y; ratio >= 0.5 && ratio <= 2 {
			within++
		}
	}
	sort.Float64s(relErrs)
	m.MedianAbsRelError = relErrs[len(relErrs)/2]
	m.WithinFactor2 = float64(within) / float64(len(pred))
	return m, nil
}

func pearson(a, b []float64) float64 {
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

// Bootstrap seeds an estimator with n generated training jobs and
// trains it — the equivalent of the paper's initial ~150-job matrix.
func Bootstrap(cfg Config, gen *workload.Generator, n int) (*Estimator, error) {
	e := New(cfg)
	specs, secs := gen.TrainingJobs(n)
	for i := range specs {
		if err := e.AddObservation(&specs[i], secs[i]); err != nil {
			return nil, err
		}
	}
	if err := e.Retrain(); err != nil {
		return nil, err
	}
	return e, nil
}
