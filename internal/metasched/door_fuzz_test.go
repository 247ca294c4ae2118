package metasched

import (
	"math"
	"testing"

	"lattice/internal/grid/mds"
	"lattice/internal/phylo"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// tinyPredictor's estimate is so small that SubmitBatch bundles every
// replicate into one job: the largest job a submission can expand to.
type tinyPredictor struct{}

func (tinyPredictor) Predict(*workload.JobSpec) (float64, error) {
	return math.SmallestNonzeroFloat64, nil
}

// FuzzDoorExpands: a submission the door accepts always expands.
// Whatever its fields, when Submission.Validate accepts it, SubmitBatch
// returns jobs that each pass lrm.Job.Validate — finite, positive work —
// and that between them run every search it asked for: once one job
// per replicate (no predictor), and once as the one job a tiny
// estimate bundles them all into. The seeds include a 2·10^8-taxon
// stepwise spec the door must accept and price at once, search or
// gamma-category counts of 2^62 (2^30 on a 32-bit target) it must
// refuse, and 8 replicates of 2^61+1 searches, whose bundle's search
// count wraps int to 8.
func FuzzDoorExpands(f *testing.F) {
	type seed struct {
		dataType, rateHet, cats int
		shape, pinv             float64
		model                   string
		taxa, length, reps      int
		start, attach           int
		replicates              int
	}
	const huge = math.MaxInt/2 + 1
	for _, s := range []seed{
		{int(phylo.Nucleotide), int(phylo.RateGamma), 4, 0.5, 0, "HKY85", 200_000_000, 1000, 1, int(phylo.StartStepwise), 25, 2000},
		{int(phylo.Nucleotide), int(phylo.RateGamma), 4, 0.5, 0, "HKY85", 40, 1000, huge, int(phylo.StartRandom), 0, 2000},
		{int(phylo.Nucleotide), int(phylo.RateGamma), 4, 0.5, 0, "HKY85", 40, 1000, math.MaxInt/4 + 2, int(phylo.StartRandom), 0, 8},
		{int(phylo.Nucleotide), int(phylo.RateGamma), huge, 0.5, 0, "HKY85", 50, 1000, 1, int(phylo.StartRandom), 0, 1},
		{int(phylo.AminoAcid), int(phylo.RateGammaInv), 4, 0.7, 0.2, "poisson", 30, 600, 3, int(phylo.StartStepwise), 4, 40},
		{int(phylo.Codon), int(phylo.RateHomogeneous), 0, 0, 0, "", 12, 300, 2, int(phylo.StartUser), 0, 7},
		{int(phylo.Nucleotide), 7, 4, 0.5, 0, "JC69", 10, 100, 1, int(phylo.StartRandom), 0, 1},
		{int(phylo.Nucleotide), int(phylo.RateHomogeneous), 0, 0, 0, "JC69", 10, 100, 1, 9, 0, 1},
	} {
		f.Add(s.dataType, s.rateHet, s.cats, s.shape, s.pinv, s.model, s.taxa, s.length, s.reps, s.start, s.attach, s.replicates)
	}
	f.Fuzz(func(t *testing.T, dataType, rateHet, cats int, shape, pinv float64, model string,
		taxa, length, reps, start, attach, replicates int) {
		sub := workload.Submission{
			Spec: workload.JobSpec{
				DataType: phylo.DataType(dataType), RateHet: phylo.RateHetKind(rateHet), NumRateCats: cats,
				GammaShape: shape, PropInvariant: pinv, SubstModel: model,
				NumTaxa: taxa, SeqLength: length, SearchReps: reps,
				StartingTree: phylo.StartingTreeKind(start), AttachmentsPerTaxon: attach, Seed: 1,
			},
			Replicates: replicates,
			UserEmail:  "u@example.edu",
		}
		if sub.Validate() != nil {
			return
		}
		for _, pred := range []Predictor{nil, tinyPredictor{}} {
			eng := sim.NewEngine()
			idx, err := mds.NewIndex(eng, sim.Hour)
			if err != nil {
				t.Fatal(err)
			}
			sched := New(eng, idx, DefaultConfig(), Options{})
			sched.SetPredictor(pred)
			jobs := sched.SubmitBatch(&sub, sim.NewRNG(1), nil, nil)
			replicates := 0
			for _, j := range jobs {
				if err := j.Job.Validate(); err != nil {
					t.Fatalf("predictor %T: %+v expanded to a job Validate refuses: %v", pred, sub.Spec, err)
				}
				// A wrapped search count would read as fewer replicates.
				if j.SearchReps < reps || j.SearchReps%reps != 0 {
					t.Fatalf("predictor %T: a job of %d searches bundles no whole number of %d-search replicates",
						pred, j.SearchReps, reps)
				}
				replicates += j.SearchReps / reps
			}
			want := len(jobs) == sub.Replicates
			if pred != nil {
				want = len(jobs) == 1
			}
			if !want || replicates != sub.Replicates {
				t.Fatalf("predictor %T: %d replicates became %d jobs of %d replicates",
					pred, sub.Replicates, len(jobs), replicates)
			}
		}
	})
}
