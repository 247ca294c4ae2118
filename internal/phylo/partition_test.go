package phylo

import (
	"math"
	"testing"

	"lattice/internal/sim"
)

// twoGeneFixture builds a concatenated two-gene alignment where gene A
// evolves under JC69 and gene B under HKY85 with gamma rates.
func twoGeneFixture(t *testing.T) (*Alignment, []Partition, *Tree) {
	t.Helper()
	rng := sim.NewRNG(41)
	names := TaxonNames(8)
	truth := RandomTree(names, 0.12, rng)

	mA, _ := NewJC69()
	rA, _ := NewSiteRates(RateHomogeneous, 0, 0, 1)
	geneA, err := SimulateAlignment(truth, mA, rA, 400, rng)
	if err != nil {
		t.Fatal(err)
	}
	mB, _ := NewHKY85(3.0, []float64{0.35, 0.15, 0.15, 0.35})
	rB, _ := NewSiteRates(RateGamma, 0.5, 0, 4)
	geneB, err := SimulateAlignment(truth, mB, rB, 600, rng)
	if err != nil {
		t.Fatal(err)
	}
	concat := &Alignment{Type: Nucleotide, Names: names}
	for i := range names {
		concat.Seqs = append(concat.Seqs, geneA.Seqs[i]+geneB.Seqs[i])
	}
	pdA, _ := geneA.Compile()
	pdB, _ := geneB.Compile()
	parts := []Partition{
		{Name: "geneA", Data: pdA, Model: mA, Rates: rA},
		{Name: "geneB", Data: pdB, Model: mB, Rates: rB},
	}
	return concat, parts, truth
}

func TestPartitionedLogLIsSumOfParts(t *testing.T) {
	_, parts, truth := twoGeneFixture(t)
	pl, err := NewPartitionedLikelihood(parts)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := range parts {
		lk, _ := NewLikelihood(parts[i].Data, parts[i].Model, parts[i].Rates)
		sum += lk.LogLikelihood(truth)
	}
	if got := pl.LogLikelihood(truth); math.Abs(got-sum) > 1e-9 {
		t.Errorf("partitioned logL %v != sum of parts %v", got, sum)
	}
	if pl.TotalWork() <= 0 {
		t.Error("no work accrued")
	}
}

func TestPartitionedBeatsWrongSingleModel(t *testing.T) {
	// Fitting the concatenated data with one JC69 model must fit
	// worse than the correctly partitioned models on the same tree.
	concat, parts, truth := twoGeneFixture(t)
	pd, err := concat.Compile()
	if err != nil {
		t.Fatal(err)
	}
	mJC, _ := NewJC69()
	rFlat, _ := NewSiteRates(RateHomogeneous, 0, 0, 1)
	single, _ := NewLikelihood(pd, mJC, rFlat)
	pl, _ := NewPartitionedLikelihood(parts)
	if pl.LogLikelihood(truth) <= single.LogLikelihood(truth) {
		t.Errorf("partitioned fit (%.1f) not better than mono-model fit (%.1f)",
			pl.LogLikelihood(truth), single.LogLikelihood(truth))
	}
}

func TestSearchPartitionedRecoversTopology(t *testing.T) {
	_, parts, truth := twoGeneFixture(t)
	cfg := DefaultSearchConfig()
	cfg.MaxGenerations = 200
	cfg.StagnationGenerations = 60
	cfg.AttachmentsPerTaxon = 8
	res, err := SearchPartitioned(parts, TaxonNames(8), cfg, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	maxRF := 2 * (truth.NumTaxa() - 3)
	if d := res.BestTree.RFDistance(truth); d > maxRF/2 {
		t.Errorf("partitioned search RF distance %d of max %d", d, maxRF)
	}
	if res.Work <= 0 {
		t.Error("no work recorded")
	}
}

func TestPartitionValidation(t *testing.T) {
	_, parts, _ := twoGeneFixture(t)
	if _, err := NewPartitionedLikelihood(nil); err == nil {
		t.Error("empty partition list accepted")
	}
	bad := []Partition{parts[0], parts[1]}
	smaller, _ := (&Alignment{
		Type:  Nucleotide,
		Names: []string{"a", "b", "c"},
		Seqs:  []string{"ACGT", "ACGA", "ACGG"},
	}).Compile()
	bad[1].Data = smaller
	if _, err := NewPartitionedLikelihood(bad); err == nil {
		t.Error("taxon-count mismatch accepted")
	}
	mismatch := []Partition{parts[0]}
	aa, _ := NewPoissonAA()
	mismatch[0].Model = aa
	if _, err := NewPartitionedLikelihood(mismatch); err == nil {
		t.Error("type mismatch accepted")
	}
}
