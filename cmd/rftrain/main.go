// Command rftrain trains and inspects the GARLI runtime-prediction
// model: it regenerates the paper's Figure 2 (variable importance),
// prints model fit statistics (~93% variance explained in the paper),
// runs cross-validation, and answers ad-hoc runtime queries.
//
// Usage:
//
//	rftrain -fig2                  # Figure 2 at paper scale
//	rftrain -stats -jobs 300       # fit statistics on a larger matrix
//	rftrain -cv 5                  # 5-fold cross-validation
//	rftrain -predict -taxa 80 -seqlen 2000 -dt nucleotide -ratehet gamma
package main

import (
	"flag"
	"fmt"
	"os"

	"lattice/internal/estimate"
	"lattice/internal/experiments"
	"lattice/internal/forest"
	"lattice/internal/phylo"
	"lattice/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rftrain:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		jobs    = flag.Int("jobs", 150, "training matrix size (paper: ~150)")
		trees   = flag.Int("trees", 10000, "forest size (paper: 10^4)")
		seed    = flag.Int64("seed", 1, "random seed")
		fig2    = flag.Bool("fig2", false, "print the Figure 2 importance table")
		stats   = flag.Bool("stats", false, "print model fit statistics")
		cv      = flag.Int("cv", 0, "run k-fold cross-validation")
		doPred  = flag.Bool("predict", false, "predict a single job's runtime")
		taxa    = flag.Int("taxa", 50, "predict: number of taxa")
		seqlen  = flag.Int("seqlen", 1500, "predict: sequence length")
		dt      = flag.String("dt", "nucleotide", "predict: data type")
		model   = flag.String("model", "GTR", "predict: substitution model")
		ratehet = flag.String("ratehet", "gamma", "predict: rate heterogeneity")
		reps    = flag.Int("searchreps", 1, "predict: search replicates")
	)
	flag.Parse()
	if !*fig2 && !*stats && *cv == 0 && !*doPred {
		*fig2 = true // default action
	}

	if *fig2 {
		r, err := experiments.Fig2(*seed, *jobs, *trees)
		if err != nil {
			return err
		}
		fmt.Print(r)
	}
	var est *estimate.Estimator
	if *stats || *doPred {
		var err error
		est, err = estimate.Bootstrap(
			forest.Config{NumTrees: *trees, MTry: 3, Seed: *seed},
			workload.NewGenerator(*seed), *jobs)
		if err != nil {
			return err
		}
	}
	if *stats {
		st, err := est.Stats()
		if err != nil {
			return err
		}
		fmt.Printf("training matrix: %d jobs, %d trees\n", *jobs, *trees)
		fmt.Printf("variance explained (model scale): %.1f%% (paper: ~93%%)\n", st.PctVarExplained)
		fmt.Printf("typical prediction error: ×%.2f\n", st.TypicalErrorFactor)
	}
	if *cv > 0 {
		r, err := experiments.CrossValidation(*seed, *jobs, *cv)
		if err != nil {
			return err
		}
		fmt.Print(r)
	}
	if *doPred {
		dtv, err := phylo.ParseDataType(*dt)
		if err != nil {
			return err
		}
		het, err := phylo.ParseRateHetKind(*ratehet)
		if err != nil {
			return err
		}
		spec := workload.JobSpec{
			DataType: dtv, SubstModel: *model, RateHet: het,
			NumRateCats: 4, GammaShape: 0.5,
			NumTaxa: *taxa, SeqLength: *seqlen, SearchReps: *reps,
			StartingTree: phylo.StartStepwise, AttachmentsPerTaxon: 25, Seed: *seed,
		}
		if het == phylo.RateGammaInv {
			spec.PropInvariant = 0.2
		}
		if err := spec.Validate(); err != nil {
			return err
		}
		pred, err := est.Predict(&spec)
		if err != nil {
			return err
		}
		fmt.Printf("predicted runtime on the reference computer: %.2f hours (%.0f s)\n", pred/3600, pred)
		fmt.Printf("memory requirement: %d MB\n", spec.MemoryMB())
		for _, speed := range []float64{0.5, 1.0, 2.0} {
			fmt.Printf("  on a speed-%.1f resource: %.2f hours\n", speed, pred/speed/3600)
		}
	}
	return nil
}
