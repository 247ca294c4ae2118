// Command rftrain trains and inspects the GARLI runtime-prediction
// model: it regenerates the paper's Figure 2 (variable importance),
// prints model fit statistics (~93% variance explained in the paper),
// runs cross-validation, and answers ad-hoc runtime queries. A query's
// job flags are GARLI's configuration keys (workload.Params); the
// analysis parameters it has no flag for take their defaults.
//
// Usage:
//
//	rftrain -fig2                  # Figure 2 at paper scale
//	rftrain -stats -jobs 300       # fit statistics on a larger matrix
//	rftrain -cv 5                  # 5-fold cross-validation
//	rftrain -predict -taxa 80 -seqlen 2000 -datatype nucleotide -ratehetmodel gamma
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"lattice/internal/estimate"
	"lattice/internal/experiments"
	"lattice/internal/forest"
	"lattice/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "rftrain:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) (err error) {
	// Output is buffered; what was printed is flushed whatever run
	// returns, and a failed write is run's error.
	stdout := bufio.NewWriter(w)
	defer func() {
		if ferr := stdout.Flush(); err == nil {
			err = ferr
		}
	}()
	fs := flag.NewFlagSet("rftrain", flag.ContinueOnError)
	var (
		jobs   = fs.Int("jobs", 150, "training matrix size (paper: ~150)")
		trees  = fs.Int("trees", 10000, "forest size (paper: 10^4)")
		seed   = fs.Int64("seed", 1, "random seed")
		fig2   = fs.Bool("fig2", false, "print the Figure 2 importance table")
		stats  = fs.Bool("stats", false, "print model fit statistics")
		cv     = fs.Int("cv", 0, "run k-fold cross-validation")
		doPred = fs.Bool("predict", false, "predict a single job's runtime")
		taxa   = fs.Int("taxa", 50, "predict: number of taxa")
		seqlen = fs.Int("seqlen", 1500, "predict: sequence length")
	)
	for _, p := range workload.Params {
		switch p.Name {
		case "datatype", "ratematrix", "ratehetmodel", "searchreps":
			fs.String(p.Name, p.Default, "predict: "+strings.ToLower(p.Label))
		}
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*fig2 && !*stats && *cv == 0 && !*doPred {
		*fig2 = true // default action
	}

	// A job the door would refuse is refused before anything trains.
	spec, err := workload.ParseSpec(func(name string) string {
		if f := fs.Lookup(name); f != nil {
			return f.Value.String()
		}
		return ""
	})
	if err != nil {
		return err
	}
	spec.NumTaxa, spec.SeqLength = *taxa, *seqlen
	if err := spec.Validate(); err != nil {
		return err
	}

	if *fig2 {
		r, err := experiments.Fig2(*seed, *jobs, *trees)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, r)
	}
	var est *estimate.Estimator
	if *stats || *doPred {
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
		fmt.Fprintf(stdout, "training matrix: %d jobs, %d trees\n", *jobs, *trees)
		fmt.Fprintf(stdout, "variance explained (model scale): %.1f%% (paper: ~93%%)\n", st.PctVarExplained)
		fmt.Fprintf(stdout, "typical prediction error: ×%.2f\n", st.TypicalErrorFactor)
	}
	if *cv > 0 {
		r, err := experiments.CrossValidation(*seed, *jobs, *cv)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, r)
	}
	if *doPred {
		pred, err := est.Predict(&spec)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "predicted runtime on the reference computer: %.2f hours (%.0f s)\n", pred/3600, pred)
		fmt.Fprintf(stdout, "memory requirement: %d MB\n", spec.MemoryMB())
		for _, speed := range []float64{0.5, 1.0, 2.0} {
			fmt.Fprintf(stdout, "  on a speed-%.1f resource: %.2f hours\n", speed, pred/speed/3600)
		}
	}
	return nil
}
