package forest

import (
	"fmt"
	"runtime"
	"sync"

	"lattice/internal/sim"
)

// Config controls forest training. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	// NumTrees is the ensemble size. The paper uses 1 × 10^4 trees
	// for the GARLI runtime model.
	NumTrees int
	// MTry is the number of covariates sampled at each node (the
	// "further injection of randomness" distinguishing random forests
	// from bagging). 0 selects the regression default max(1, p/3).
	MTry int
	// MinLeafSize is the minimum observations per leaf (R default 5
	// for regression).
	MinLeafSize int
	// MaxDepth bounds tree depth; 0 = unlimited.
	MaxDepth int
	// Seed makes training deterministic; trees are built in parallel
	// but each derives its own RNG stream from Seed, so results do
	// not depend on goroutine scheduling.
	Seed int64
	// Workers limits build parallelism; 0 = GOMAXPROCS.
	Workers int
}

// DefaultConfig mirrors the R randomForest regression defaults used by
// the paper, at a smaller default ensemble size (callers reproducing
// Figure 2 pass NumTrees: 10000 explicitly).
func DefaultConfig() Config {
	return Config{NumTrees: 500, MinLeafSize: 5}
}

// Forest is a trained random forest regression model.
type Forest struct {
	schema *Schema
	cfg    Config
	trees  []*regTree

	oobPrediction []float64 // mean OOB vote per training row (NaN if never OOB)
	oobCounts     []int
	oobMSE        float64
	trainVariance float64
	ds            *Dataset // retained for permutation importance
}

// Train grows a forest on ds. It is deterministic for a given
// Config.Seed regardless of parallelism.
func Train(ds *Dataset, cfg Config) (*Forest, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if cfg.NumTrees <= 0 {
		return nil, fmt.Errorf("forest: NumTrees must be positive, got %d", cfg.NumTrees)
	}
	if cfg.MinLeafSize <= 0 {
		cfg.MinLeafSize = 5
	}
	p := ds.Schema.NumFeatures()
	if cfg.MTry <= 0 {
		cfg.MTry = p / 3
		if cfg.MTry < 1 {
			cfg.MTry = 1
		}
	}
	if cfg.MTry > p {
		cfg.MTry = p
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.NumTrees {
		workers = cfg.NumTrees
	}

	f := &Forest{schema: ds.Schema, cfg: cfg, trees: make([]*regTree, cfg.NumTrees), ds: ds.Clone()}
	cols := columnMajor(f.ds)

	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := newTreeBuilder(cfg, f.schema.Kinds, cols, f.ds.Y)
			for t := range next {
				// Per-tree deterministic stream: independent of which
				// worker builds which tree.
				f.trees[t] = b.grow(cfg.Seed + int64(t)*0x9E3779B9)
			}
		}()
	}
	for t := 0; t < cfg.NumTrees; t++ {
		next <- t
	}
	close(next)
	wg.Wait()

	f.computeOOB()
	return f, nil
}

// columnMajor returns ds.X transposed into one slice: feature f of
// row r at [f*n+r].
func columnMajor(ds *Dataset) []float64 {
	n, p := ds.NumRows(), ds.Schema.NumFeatures()
	cols := make([]float64, p*n)
	for r, row := range ds.X {
		for f, v := range row {
			cols[f*n+r] = v
		}
	}
	return cols
}

// computeOOB fills the out-of-bag predictions and error.
func (f *Forest) computeOOB() {
	n := f.ds.NumRows()
	sums := make([]float64, n)
	counts := make([]int, n)
	for _, tr := range f.trees {
		for _, r := range tr.oob {
			sums[r] += tr.predict(f.ds.X[r], f.schema.Kinds)
			counts[r]++
		}
	}
	f.oobPrediction = make([]float64, n)
	f.oobCounts = counts
	var sse float64
	var m int
	for i := 0; i < n; i++ {
		if counts[i] == 0 {
			f.oobPrediction[i] = f.ds.Y[i] // never OOB (tiny forests only)
			continue
		}
		f.oobPrediction[i] = sums[i] / float64(counts[i])
		d := f.oobPrediction[i] - f.ds.Y[i]
		sse += d * d
		m++
	}
	if m > 0 {
		f.oobMSE = sse / float64(m)
	}
	f.trainVariance = variance(f.ds.Y)
}

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }

// Predict returns the forest's prediction for covariates x.
func (f *Forest) Predict(x []float64) float64 {
	var s float64
	for _, tr := range f.trees {
		s += tr.predict(x, f.schema.Kinds)
	}
	return s / float64(len(f.trees))
}

// OOBMSE returns the out-of-bag mean squared error.
func (f *Forest) OOBMSE() float64 { return f.oobMSE }

// PercentVarExplained returns 1 - OOB MSE / Var(y), in percent — the
// statistic the paper reports as "approximately 93%".
func (f *Forest) PercentVarExplained() float64 {
	if f.trainVariance == 0 {
		return 0
	}
	return 100 * (1 - f.oobMSE/f.trainVariance)
}

// ImportanceResult pairs a feature with its permutation importance.
type ImportanceResult struct {
	Feature string
	// PctIncMSE is the percent increase in out-of-bag MSE when the
	// feature's values are permuted among OOB cases — the measure in
	// the paper's Figure 2.
	PctIncMSE float64
}

// Importance computes permutation variable importance for every
// feature: for each tree, the OOB MSE is recomputed with the feature's
// OOB values shuffled; the aggregate increase over the baseline OOB
// MSE, in percent, is reported. Deterministic for a given seed.
func (f *Forest) Importance(seed int64) []ImportanceResult {
	p := f.schema.NumFeatures()
	incSSE := make([]float64, p)
	counts := make([]int, p)
	baseSSE := make([]float64, p)
	rng := sim.NewRNG(seed)
	row := make([]float64, p)
	permBuf := make([]int, f.ds.NumRows())
	for _, tr := range f.trees {
		if len(tr.oob) < 2 {
			continue
		}
		// Baseline SSE of this tree on its OOB rows.
		var base float64
		for _, r := range tr.oob {
			d := tr.predict(f.ds.X[r], f.schema.Kinds) - f.ds.Y[r]
			base += d * d
		}
		perm := permBuf[:len(tr.oob)]
		for j := 0; j < p; j++ {
			rng.PermInto(perm)
			var sse float64
			for k, r := range tr.oob {
				copy(row, f.ds.X[r])
				row[j] = f.ds.X[tr.oob[perm[k]]][j]
				d := tr.predict(row, f.schema.Kinds) - f.ds.Y[r]
				sse += d * d
			}
			incSSE[j] += sse - base
			baseSSE[j] += base
			counts[j] += len(tr.oob)
		}
	}
	out := make([]ImportanceResult, p)
	for j := 0; j < p; j++ {
		var pct float64
		if baseSSE[j] > 0 {
			pct = 100 * incSSE[j] / baseSSE[j]
		}
		out[j] = ImportanceResult{Feature: f.schema.Names[j], PctIncMSE: pct}
	}
	return out
}

// GainImportance returns split-gain variable importance: each
// feature's share of the total SSE reduction achieved by splits on it,
// in percent. Cheaper than permutation importance but biased toward
// high-cardinality features — the ablation experiment contrasts the
// two (the paper uses the permutation measure).
func (f *Forest) GainImportance() []ImportanceResult {
	p := f.schema.NumFeatures()
	totals := make([]float64, p)
	var grand float64
	for _, tr := range f.trees {
		for j, g := range tr.gain {
			totals[j] += g
			grand += g
		}
	}
	out := make([]ImportanceResult, p)
	for j := 0; j < p; j++ {
		var pct float64
		if grand > 0 {
			pct = 100 * totals[j] / grand
		}
		out[j] = ImportanceResult{Feature: f.schema.Names[j], PctIncMSE: pct}
	}
	return out
}

// CrossValidate runs k-fold cross-validation of a forest configuration
// on ds and returns the per-row held-out predictions, fold assignment
// shuffled deterministically by cfg.Seed.
func CrossValidate(ds *Dataset, cfg Config, k int) ([]float64, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	n := ds.NumRows()
	if k < 2 || k > n {
		return nil, fmt.Errorf("forest: k = %d folds invalid for %d rows", k, n)
	}
	rng := sim.NewRNG(cfg.Seed ^ 0x5DEECE66D)
	order := rng.Perm(n)
	pred := make([]float64, n)
	for fold := 0; fold < k; fold++ {
		var trainIdx, testIdx []int
		for pos, r := range order {
			if pos%k == fold {
				testIdx = append(testIdx, r)
			} else {
				trainIdx = append(trainIdx, r)
			}
		}
		sub := &Dataset{Schema: ds.Schema}
		for _, r := range trainIdx {
			sub.X = append(sub.X, ds.X[r])
			sub.Y = append(sub.Y, ds.Y[r])
		}
		foldCfg := cfg
		foldCfg.Seed = cfg.Seed + int64(fold)
		f, err := Train(sub, foldCfg)
		if err != nil {
			return nil, err
		}
		for _, r := range testIdx {
			pred[r] = f.Predict(ds.X[r])
		}
	}
	return pred, nil
}
