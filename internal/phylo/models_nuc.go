package phylo

import "fmt"

// Nucleotide substitution models, ordered by generality:
// JC69 ⊂ K80 ⊂ HKY85 ⊂ GTR. States are A, C, G, T (indices 0..3);
// transitions are A↔G and C↔T.

// uniformFreqs returns a frequency vector of n equal entries.
func uniformFreqs(n int) []float64 {
	f := make([]float64, n)
	for i := range f {
		f[i] = 1 / float64(n)
	}
	return f
}

// NewJC69 returns the Jukes–Cantor (1969) model: equal rates, equal
// frequencies.
func NewJC69() (*Model, error) {
	r := NewMatrix(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			r.Set(i, j, 1)
		}
	}
	return newModelFromRates("JC69", Nucleotide, r, uniformFreqs(4))
}

// NewK80 returns the Kimura (1980) two-parameter model with
// transition/transversion rate ratio kappa and equal frequencies.
func NewK80(kappa float64) (*Model, error) {
	if kappa <= 0 {
		return nil, fmt.Errorf("phylo: K80 kappa must be positive, got %g", kappa)
	}
	return hkyLike("K80", kappa, uniformFreqs(4))
}

// NewHKY85 returns the Hasegawa–Kishino–Yano (1985) model with
// transition/transversion ratio kappa and arbitrary base frequencies
// (A, C, G, T order).
func NewHKY85(kappa float64, freqs []float64) (*Model, error) {
	if kappa <= 0 {
		return nil, fmt.Errorf("phylo: HKY85 kappa must be positive, got %g", kappa)
	}
	return hkyLike("HKY85", kappa, freqs)
}

func hkyLike(name string, kappa float64, freqs []float64) (*Model, error) {
	r := NewMatrix(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if isTransition(i, j) {
				r.Set(i, j, kappa)
			} else {
				r.Set(i, j, 1)
			}
		}
	}
	return newModelFromRates(name, Nucleotide, r, freqs)
}

// isTransition reports whether the substitution between nucleotide
// states i and j (A=0, C=1, G=2, T=3) is a transition (purine↔purine
// or pyrimidine↔pyrimidine).
func isTransition(i, j int) bool {
	return (i == 0 && j == 2) || (i == 2 && j == 0) ||
		(i == 1 && j == 3) || (i == 3 && j == 1)
}

// NewGTR returns the general time-reversible model. rates holds the
// six exchangeabilities in the conventional order AC, AG, AT, CG, CT,
// GT; freqs are the A, C, G, T frequencies.
func NewGTR(rates [6]float64, freqs []float64) (*Model, error) {
	r := NewMatrix(4)
	idx := 0
	labels := [6]string{"rAC", "rAG", "rAT", "rCG", "rCT", "rGT"}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if rates[idx] <= 0 {
				return nil, fmt.Errorf("phylo: GTR rate %s must be positive, got %g", labels[idx], rates[idx])
			}
			r.Set(i, j, rates[idx])
			idx++
		}
	}
	return newModelFromRates("GTR", Nucleotide, r, freqs)
}
