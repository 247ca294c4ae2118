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
		{"-ratehetmodel", "gamma", "-alpha", "NaN"},
		{"-ratehetmodel", "gamma", "-alpha", "+Inf"},
		{"-ratehetmodel", "gamma+inv", "-alpha", "NaN"},
		{"-ratehetmodel", "gamma+inv", "-pinv", "NaN"},
		{"-ratehetmodel", "gamma", "-alpha", "1e6"},
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

// TestFormatIsReadFromTheFile runs one search on a FASTA, a PHYLIP and
// a NEXUS copy of the same alignment and compares the printed lines and
// every file written with testdata cut from the program as it was
// before the format came from the file: then the format was a flag
// (-format phylip, -format nexus), and -ratematrix and -ratehetmodel
// were -model and -ratehet.
func TestFormatIsReadFromTheFile(t *testing.T) {
	data, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir())
	for _, c := range []struct {
		out   string
		args  []string
		files []string
	}{
		{"fasta", []string{"-data", filepath.Join(data, "seqs.fasta"), "-ratematrix", "HKY85", "-ratehetmodel", "gamma+inv",
			"-generations", "30", "-seed", "3"}, []string{".best.tre"}},
		{"phylip", []string{"-data", filepath.Join(data, "seqs.phy"), "-ratematrix", "K80", "-ratehetmodel", "none",
			"-searchreps", "2", "-streefname", "random", "-generations", "30", "-seed", "4"}, []string{".best.tre"}},
		{"nexus", []string{"-data", filepath.Join(data, "seqs.nex"), "-ratematrix", "GTR", "-numratecats", "2",
			"-attachmentspertaxon", "5", "-alpha", "0.8", "-generations", "20", "-bootstrap", "3", "-seed", "5"},
			[]string{".best.tre", ".boot.con"}},
	} {
		// run prints to os.Stdout; a file stands in for it.
		stdout, err := os.Create(c.out + ".stdout")
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout, stdout = stdout, os.Stdout
		err = run(append(c.args, "-out", c.out))
		os.Stdout, stdout = stdout, os.Stdout
		if cerr := stdout.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("%s: %v", c.out, err)
		}
		got := map[string][]byte{}
		for _, ext := range append(c.files, ".stdout") {
			if got[ext], err = os.ReadFile(c.out + ext); err != nil {
				t.Fatal(err)
			}
		}
		for ext, g := range got {
			want, err := os.ReadFile(filepath.Join(data, c.out+ext))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g, want) {
				t.Errorf("%s%s:\n%s\nwant\n%s", c.out, ext, g, want)
			}
		}
	}
}
