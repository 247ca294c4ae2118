package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lattice/internal/phylo"
	"lattice/internal/sim"
)

// TestWorkersDoNotChangeTheTree runs the same search at one and three
// workers, with one and three replicates, and requires the same best
// tree byte for byte: the seed names the tree, the pool only spreads
// the work.
func TestWorkersDoNotChangeTheTree(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "sim.fasta")
	writeAlignment(t, data)
	for _, reps := range []string{"1", "3"} {
		var want []byte
		for _, workers := range []string{"1", "3"} {
			out := filepath.Join(dir, fmt.Sprintf("r%s-w%s", reps, workers))
			args := []string{"-data", data, "-generations", "20", "-searchreps", reps, "-workers", workers, "-seed", "3", "-out", out}
			if err := run(args); err != nil {
				t.Fatalf("run(%q): %v", args, err)
			}
			got, err := os.ReadFile(out + ".best.tre")
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Errorf("-searchreps %s: -workers %s wrote\n%s-workers 1 wrote\n%s", reps, workers, got, want)
			}
		}
	}
}

// writeAlignment simulates 8 taxa × 300 sites under GTR+Γ into path.
func writeAlignment(t *testing.T, path string) {
	t.Helper()
	rng := sim.NewRNG(3)
	m, err := phylo.NewGTR([6]float64{1.1, 3.2, 0.8, 1.3, 4.0, 1}, []float64{0.28, 0.22, 0.26, 0.24})
	if err != nil {
		t.Fatal(err)
	}
	rates, err := phylo.NewSiteRates(phylo.RateGamma, 0.5, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	al, err := phylo.SimulateAlignment(phylo.RandomTree(phylo.TaxonNames(8), 0.1, rng), m, rates, 300, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := al.WriteFASTA(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestNonFiniteRateParametersRefused: flag.Float64 parses "NaN" and
// "Inf", and garli builds its rate mixture without going through the
// portal's validation, so the mixture itself must refuse them rather
// than search on NaN likelihoods — and a gamma shape past
// phylo.MaxGammaShape, whose rates are wrong.
func TestNonFiniteRateParametersRefused(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "sim.fasta")
	writeAlignment(t, data)
	for _, bad := range [][]string{
		{"-ratehet", "gamma", "-alpha", "NaN"},
		{"-ratehet", "gamma", "-alpha", "+Inf"},
		{"-ratehet", "gamma+inv", "-alpha", "NaN"},
		{"-ratehet", "gamma+inv", "-pinv", "NaN"},
		{"-ratehet", "gamma", "-alpha", "1e6"},
	} {
		out := filepath.Join(dir, "bad")
		args := append([]string{"-data", data, "-generations", "2", "-out", out}, bad...)
		if err := run(args); err == nil {
			t.Errorf("run(%q) accepted a bad rate parameter", bad)
		}
		if _, err := os.Stat(out + ".best.tre"); err == nil {
			t.Errorf("run(%q) wrote a tree", bad)
		}
	}
}
