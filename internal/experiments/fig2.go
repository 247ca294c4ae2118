package experiments

import (
	"fmt"
	"math"
	"time"

	"lattice/internal/estimate"
	"lattice/internal/forest"
	"lattice/internal/workload"
)

// Fig2Result reproduces Figure 2 and the Section VI-D statistics.
type Fig2Result struct {
	TrainJobs  int
	Trees      int
	Importance []forest.ImportanceResult // permutation %IncMSE, descending
	Stats      estimate.ModelStats
	BuildTime  time.Duration
}

// Fig2 trains the runtime model on a generated training matrix of the
// paper's size (150 jobs, 10^4 trees in the full configuration) and
// computes permutation variable importance — experiment E1/E2.
func Fig2(seed int64, trainJobs, trees int) (*Fig2Result, error) {
	start := clock.Now()
	est, err := estimatorFor(seed, trainJobs, trees)
	if err != nil {
		return nil, err
	}
	build := clock.Now().Sub(start)
	imp, err := est.Importance(seed + 1)
	if err != nil {
		return nil, err
	}
	stats, err := est.Stats()
	if err != nil {
		return nil, err
	}
	return &Fig2Result{
		TrainJobs:  trainJobs,
		Trees:      trees,
		Importance: imp,
		Stats:      stats,
		BuildTime:  build,
	}, nil
}

// String renders the Figure 2 table.
func (r *Fig2Result) String() string {
	rows := make([][]string, 0, len(r.Importance))
	for _, imp := range r.Importance {
		rows = append(rows, []string{imp.Feature, fmt.Sprintf("%.1f", imp.PctIncMSE)})
	}
	return fmt.Sprintf("Figure 2 — GARLI runtime predictor importance (%d jobs, %d trees)\n%s"+
		"variance explained: %.1f%% (paper: ~93%%); typical error ×%.2f; raw-scale %%Var: %.1f%%\n"+
		"model build time: %v (paper: \"takes very little time to compute\")\n",
		r.TrainJobs, r.Trees,
		table([]string{"predictor", "%IncMSE"}, rows),
		r.Stats.PctVarExplained, r.Stats.TypicalErrorFactor, r.Stats.RawPctVarExplained,
		r.BuildTime.Round(time.Millisecond))
}

// rank returns a feature's position in the importance ordering.
func (r *Fig2Result) rank(feature string) int {
	for i, imp := range r.Importance {
		if imp.Feature == feature {
			return i
		}
	}
	return -1
}

// CVResult reproduces the Section VI-D cross-validation claim (E3a).
type CVResult struct {
	TrainJobs int
	Folds     int
	Metrics   estimate.CVMetrics
}

// CrossValidation runs k-fold CV on the training matrix.
func CrossValidation(seed int64, trainJobs, folds int) (*CVResult, error) {
	est, err := estimatorFor(seed, trainJobs, 0)
	if err != nil {
		return nil, err
	}
	m, err := est.CrossValidate(folds)
	if err != nil {
		return nil, err
	}
	return &CVResult{TrainJobs: trainJobs, Folds: folds, Metrics: m}, nil
}

func (r *CVResult) String() string {
	return fmt.Sprintf("E3 — %d-fold cross-validation on %d jobs:\n"+
		"  log-scale correlation: %.3f\n"+
		"  median |relative error|: %.0f%%\n"+
		"  predictions within 2× of actual: %.0f%%\n",
		r.Folds, r.TrainJobs, r.Metrics.Correlation,
		100*r.Metrics.MedianAbsRelError, 100*r.Metrics.WithinFactor2)
}

// AblationMtryResult contrasts random-subspace forests with plain
// bagging (mtry = p), the decorrelation the paper quotes Breiman for.
type AblationMtryResult struct {
	Rows [][]string // mtry, OOB MSE (log scale), %Var
}

// AblationMtry sweeps mtry.
func AblationMtry(seed int64, trainJobs int) (*AblationMtryResult, error) {
	gen := workload.NewGenerator(seed)
	specs, secs := gen.TrainingJobs(trainJobs)
	res := &AblationMtryResult{}
	for _, mtry := range []int{1, 3, 6, 9} {
		cfg := estimate.DefaultConfig()
		cfg.Seed = seed
		cfg.MTry = mtry
		e := estimate.New(cfg)
		for i := range specs {
			if err := e.AddObservation(&specs[i], secs[i]); err != nil {
				return nil, err
			}
		}
		if err := e.Retrain(); err != nil {
			return nil, err
		}
		st, err := e.Stats()
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", mtry),
			fmt.Sprintf("%.1f", st.PctVarExplained),
			fmt.Sprintf("×%.2f", st.TypicalErrorFactor),
		})
	}
	return res, nil
}

func (r *AblationMtryResult) String() string {
	return "Ablation — covariate subsampling (mtry; 9 = plain bagging)\n" +
		table([]string{"mtry", "%Var explained", "typical error"}, r.Rows)
}

// AblationForestSizeResult sweeps ensemble size: prediction quality vs
// build time (the paper's 10^4 trees "does not take much computational
// time").
type AblationForestSizeResult struct {
	Rows [][]string
}

// AblationForestSize sweeps the tree count.
func AblationForestSize(seed int64, trainJobs int) (*AblationForestSizeResult, error) {
	res := &AblationForestSizeResult{}
	for _, trees := range []int{100, 1000, 10000} {
		start := clock.Now()
		est, err := estimatorFor(seed, trainJobs, trees)
		if err != nil {
			return nil, err
		}
		build := clock.Now().Sub(start)
		st, err := est.Stats()
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", trees),
			fmt.Sprintf("%.1f", st.PctVarExplained),
			fmt.Sprintf("×%.2f", st.TypicalErrorFactor),
			build.Round(time.Millisecond).String(),
		})
	}
	return res, nil
}

func (r *AblationForestSizeResult) String() string {
	return "Ablation — forest size (paper uses 10^4 trees)\n" +
		table([]string{"trees", "%Var explained", "typical error", "build time"}, r.Rows)
}

// AblationImportanceResult contrasts permutation (%IncMSE, the paper's
// Figure 2 measure) with split-gain importance.
type AblationImportanceResult struct {
	Rows [][]string
}

// AblationImportanceMethod compares the two importance measures on the
// same forest.
func AblationImportanceMethod(seed int64, trainJobs int) (*AblationImportanceResult, error) {
	gen := workload.NewGenerator(seed)
	specs, secs := gen.TrainingJobs(trainJobs)
	ds := &forest.Dataset{Schema: estimate.Schema()}
	for i := range specs {
		row := estimate.Features(&specs[i])
		if err := ds.Append(row, logOf(secs[i])); err != nil {
			return nil, err
		}
	}
	f, err := forest.Train(ds, forest.Config{NumTrees: 1000, MTry: 3, MinLeafSize: 5, Seed: seed})
	if err != nil {
		return nil, err
	}
	perm := f.Importance(seed + 1)
	gain := f.GainImportance()
	res := &AblationImportanceResult{}
	for i := range perm {
		res.Rows = append(res.Rows, []string{
			perm[i].Feature,
			fmt.Sprintf("%.1f", perm[i].PctIncMSE),
			fmt.Sprintf("%.1f", gain[i].PctIncMSE),
		})
	}
	return res, nil
}

func (r *AblationImportanceResult) String() string {
	return "Ablation — permutation (%IncMSE, paper's measure) vs split-gain importance\n" +
		table([]string{"predictor", "permutation", "split-gain %"}, r.Rows)
}

func logOf(x float64) float64 { return math.Log(x) }
