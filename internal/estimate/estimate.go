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
	"lattice/internal/phylo"
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
	// SubstModel is the model the job runs, whatever its spelling:
	// its index in phylo's model table, 7 for a name the door refuses.
	code := 7.0
	if id, err := phylo.LookupModel(s.DataType, s.SubstModel); err == nil {
		code = float64(id)
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

// DefaultConfig is the estimator's forest: three of the nine
// predictors sampled at each node, and a smaller ensemble than the
// paper's 10^4 so interactive retraining stays instant; the Figure 2
// bench passes the full 10^4.
func DefaultConfig() forest.Config {
	return forest.Config{NumTrees: 500, MTry: 3, Seed: 1}
}

// Estimator predicts job runtimes on the reference computer and keeps
// itself up to date from completed jobs. Safe for concurrent use.
//
// Internally the forest regresses log(runtime): GARLI runtimes span
// minutes to months, and log-scale training preserves relative
// accuracy for short jobs (which drive BOINC deadline and bundling
// decisions) as well as long ones.
//
// The training matrix only grows and no row is written once added, so
// Dataset snapshots it without a copy and every forest trains on its
// snapshot in place.
type Estimator struct {
	cfg forest.Config // fixed at New

	mu sync.Mutex
	ds *forest.Dataset
	f  *forest.Forest
}

// New returns an estimator with an empty training matrix.
func New(cfg forest.Config) *Estimator {
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

// Dataset returns a snapshot of the training matrix: every row added
// so far, in order. The matrix's slices are cut at their current
// length and capacity, so a later observation never writes where the
// snapshot can read and does not show in it. The rows are the
// estimator's own; the caller must not write to them.
func (e *Estimator) Dataset() *forest.Dataset {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.ds.NumRows()
	return &forest.Dataset{Schema: e.ds.Schema, X: e.ds.X[:n:n], Y: e.ds.Y[:n:n]}
}

// Retrain rebuilds the forest from a snapshot of the training matrix.
// Training runs outside the lock — tree growing joins worker
// channels, and holding mu across that would stall every reader for
// the full training latency.
func (e *Estimator) Retrain() error {
	ds := e.Dataset()
	if n := ds.NumRows(); n < 5 {
		return fmt.Errorf("estimate: only %d observations; need at least 5 to train", n)
	}
	f, err := forest.Train(ds, e.cfg)
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

// ModelStats summarizes the estimator's out-of-bag fit.
type ModelStats struct {
	// PctVarExplained is 1 - OOB MSE / Var(y) in percent on the
	// model's log-runtime scale — the headline statistic the paper
	// reports as "approximately 93%".
	PctVarExplained float64
	// TypicalErrorFactor is exp(OOB log-RMSE): the multiplicative
	// factor a typical prediction is off by (1.5 = within ±50%).
	TypicalErrorFactor float64
}

// Stats reports the model's out-of-bag fit; see ModelStats.
func (e *Estimator) Stats() (ModelStats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.f == nil {
		return ModelStats{}, fmt.Errorf("estimate: model not trained")
	}
	return ModelStats{
		PctVarExplained:    e.f.PercentVarExplained(),
		TypicalErrorFactor: math.Exp(math.Sqrt(e.f.OOBMSE())),
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
	ds := e.Dataset()
	pred, err := forest.CrossValidate(ds, e.cfg, k)
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
func Bootstrap(cfg forest.Config, gen *workload.Generator, n int) (*Estimator, error) {
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
