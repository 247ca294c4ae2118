// Quickstart: assemble the default grid, submit a 50-replicate GARLI
// bootstrap batch through the public API, run a month of grid time,
// and report what happened.
package main

import (
	"fmt"
	"log"

	"lattice"
)

func main() {
	// A complete federation: four Condor pools, three clusters, the
	// reference cluster, and a 400-host BOINC volunteer pool, with a
	// 150-job random-forest runtime model pre-trained.
	grid, err := lattice.New(lattice.DefaultConfig(42))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid up: %d resources, runtime model trained on %d jobs\n",
		len(grid.ResourceNames()), grid.Estimator.NumObservations())

	// A typical phylogenetic analysis: 24 taxa, 1200 bp, GTR+Γ,
	// 50 bootstrap replicates, one job per replicate.
	sub := lattice.Submission{
		Spec: lattice.JobSpec{
			DataType:            lattice.Nucleotide,
			SubstModel:          "GTR",
			RateHet:             lattice.RateGammaInv,
			NumRateCats:         4,
			GammaShape:          0.5,
			PropInvariant:       0.2,
			NumTaxa:             24,
			SeqLength:           1200,
			SearchReps:          1,
			StartingTree:        lattice.StartStepwise,
			AttachmentsPerTaxon: 25,
			Seed:                7,
		},
		Replicates: 50,
		Bootstrap:  true,
		UserEmail:  "quickstart@example.edu",
	}
	batch, err := grid.SubmitSubmission(sub)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted %s: %d grid jobs for %d replicates\n",
		batch.ID, len(batch.Jobs), sub.Replicates)

	// Let the grid run for up to 30 days of virtual time.
	grid.Run(30 * lattice.Day)

	st, err := grid.Service.Status(batch.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch %s: %d completed, %d failed (done=%v)\n",
		st.ID, st.Completed, st.Failed, st.Done)
	for _, j := range batch.Jobs[:3] {
		fmt.Printf("  job %s ran on %-16s estimate %.0fs, wall %.0fs\n",
			j.ID, j.Resource(), j.EstimatedRefSeconds,
			float64(j.CompletedAt.Sub(j.StartedAt)))
	}
	for _, n := range grid.Service.Sent() {
		fmt.Printf("  mail → %s: %s\n", n.To, n.Subject)
	}
	zip, err := grid.Service.ResultsZip(batch.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("results zip: %d bytes\n", len(zip))
}
