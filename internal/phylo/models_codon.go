package phylo

import "fmt"

// Codon models in the Goldman–Yang (1994) / Muse–Gaut style: states
// are the 61 sense codons; only single-nucleotide changes have
// non-zero instantaneous rate; transitions are favoured by kappa and
// non-synonymous changes are scaled by omega (dN/dS). These are the
// most expensive models GARLI supports — a 61×61 state space makes
// every likelihood pass ~230× the per-site cost of a nucleotide model,
// which is why DataType is the second most important runtime predictor
// in the paper's Figure 2.

// NewGY94 returns a GY94-style codon model with
// transition/transversion ratio kappa, nonsynonymous/synonymous ratio
// omega, and codon frequencies freqs (length 61; nil for uniform).
func NewGY94(kappa, omega float64, freqs []float64) (*Model, error) {
	if kappa <= 0 {
		return nil, fmt.Errorf("phylo: GY94 kappa must be positive, got %g", kappa)
	}
	if omega <= 0 {
		return nil, fmt.Errorf("phylo: GY94 omega must be positive, got %g", omega)
	}
	if freqs == nil {
		freqs = uniformFreqs(NumSenseCodons)
	}
	r := NewMatrix(NumSenseCodons)
	for i := 0; i < NumSenseCodons; i++ {
		ni := codonNucleotides(i)
		for j := i + 1; j < NumSenseCodons; j++ {
			nj := codonNucleotides(j)
			diffPos := -1
			ndiff := 0
			for p := 0; p < 3; p++ {
				if ni[p] != nj[p] {
					ndiff++
					diffPos = p
				}
			}
			if ndiff != 1 {
				continue // multi-nucleotide changes are instantaneous-rate zero
			}
			rate := 1.0
			if isTransitionTCAG(ni[diffPos], nj[diffPos]) {
				rate *= kappa
			}
			if CodonAminoAcid(i) != CodonAminoAcid(j) {
				rate *= omega
			}
			r.Set(i, j, rate)
		}
	}
	return newModelFromRates("GY94", Codon, r, freqs)
}

// isTransitionTCAG reports whether a change between nucleotides in
// TCAG encoding (T=0, C=1, A=2, G=3) is a transition: T↔C or A↔G.
func isTransitionTCAG(i, j int) bool {
	return (i == 0 && j == 1) || (i == 1 && j == 0) ||
		(i == 2 && j == 3) || (i == 3 && j == 2)
}
