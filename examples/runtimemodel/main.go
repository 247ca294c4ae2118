// Runtimemodel: the random-forest runtime predictor on its own —
// bootstrap a training matrix like the paper's ~150 real jobs, inspect
// variable importance (Figure 2), query predictions for new analyses,
// and fold a fresh observation back in (continuous retraining).
package main

import (
	"fmt"
	"log"

	"lattice"
)

func main() {
	gen := lattice.NewGenerator(1)
	est, err := lattice.BootstrapEstimator(lattice.EstimatorConfig{
		NumTrees: 2000, MTry: 3, Seed: 1,
	}, gen, 150)
	if err != nil {
		log.Fatal(err)
	}

	st, err := est.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model: 150 jobs, 2000 trees — %.1f%% variance explained, typical error ×%.2f\n",
		st.PctVarExplained, st.TypicalErrorFactor)

	imp, err := est.Importance(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nvariable importance (%IncMSE, the paper's Figure 2):")
	for _, r := range imp {
		bar := ""
		for i := 0; i < int(r.PctIncMSE/4); i++ {
			bar += "█"
		}
		fmt.Printf("  %-22s %6.1f %s\n", r.Feature, r.PctIncMSE, bar)
	}

	// How long will this analysis take?
	spec := lattice.JobSpec{
		DataType:            lattice.Nucleotide,
		SubstModel:          "GTR",
		RateHet:             lattice.RateGamma,
		NumRateCats:         4,
		GammaShape:          0.5,
		NumTaxa:             60,
		SeqLength:           1800,
		SearchReps:          2,
		StartingTree:        lattice.StartStepwise,
		AttachmentsPerTaxon: 25,
	}
	pred, err := est.Predict(&spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n60-taxon GTR+Γ analysis, 2 search replicates:\n")
	fmt.Printf("  predicted: %.2f h on the reference computer (needs %d MB)\n", pred/3600, spec.MemoryMB())
	for _, speed := range []float64{0.5, 2.0} {
		fmt.Printf("  on a speed-%.1f resource: %.2f h\n", speed, pred/speed/3600)
	}

	// The same analysis without rate heterogeneity is much cheaper —
	// the top effect in Figure 2.
	flat := spec
	flat.RateHet = lattice.RateHomogeneous
	flat.GammaShape = 0
	pFlat := must1(est.Predict(&flat))
	fmt.Printf("  without rate heterogeneity: %.2f h (×%.1f cheaper)\n", pFlat/3600, pred/pFlat)

	// Continuous retraining: a completed job's observed runtime goes
	// straight back into the matrix and the model is rebuilt.
	before := est.NumObservations()
	if err := est.AddObservation(&spec, pred*1.3); err != nil {
		log.Fatal(err)
	}
	if err := est.Retrain(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nretrained: matrix grew %d → %d observations; new model live immediately\n",
		before, est.NumObservations())
}

// must1 unwraps a (value, error) pair, dying on error — example-grade
// error handling that still refuses to continue past a failure.
func must1[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}
