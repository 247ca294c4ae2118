package phylo

// Amino acid models. GARLI ships empirical matrices (Dayhoff, JTT,
// WAG, …) estimated from large protein databases. Redistributing those
// tables is unnecessary for reproduction purposes — what matters for
// runtime (and for the scheduler experiments) is the 20-state
// likelihood cost and the existence of both a uniform-rate and an
// "empirical-style" uneven-rate variant. We therefore provide Poisson
// (uniform exchangeabilities) and a deterministic synthetic empirical
// matrix whose exchangeabilities are derived from physicochemical
// distance, giving realistically uneven rates and frequencies. This
// substitution is recorded in DESIGN.md.

// aaProperties holds a crude hydrophobicity/volume/charge embedding of
// the 20 amino acids (order ARNDCQEGHILKMFPSTWYV), used to derive the
// synthetic empirical exchangeabilities: chemically similar residues
// exchange faster, as in real empirical matrices.
var aaProperties = [20][3]float64{
	{1.8, 88.6, 0},    // A
	{-4.5, 173.4, 1},  // R
	{-3.5, 114.1, 0},  // N
	{-3.5, 111.1, -1}, // D
	{2.5, 108.5, 0},   // C
	{-3.5, 143.8, 0},  // Q
	{-3.5, 138.4, -1}, // E
	{-0.4, 60.1, 0},   // G
	{-3.2, 153.2, .5}, // H
	{4.5, 166.7, 0},   // I
	{3.8, 166.7, 0},   // L
	{-3.9, 168.6, 1},  // K
	{1.9, 162.9, 0},   // M
	{2.8, 189.9, 0},   // F
	{-1.6, 112.7, 0},  // P
	{-0.8, 89.0, 0},   // S
	{-0.7, 116.1, 0},  // T
	{-0.9, 227.8, 0},  // W
	{-1.3, 193.6, 0},  // Y
	{4.2, 140.0, 0},   // V
}

// syntheticAAFreqs are uneven stationary frequencies loosely shaped
// like observed proteome composition (common residues A, G, L, S more
// frequent; W, C rare).
var syntheticAAFreqs = []float64{
	0.083, 0.055, 0.041, 0.054, 0.014, 0.039, 0.067, 0.071, 0.023, 0.059,
	0.097, 0.058, 0.024, 0.039, 0.047, 0.066, 0.053, 0.011, 0.029, 0.069,
}

// NewPoissonAA returns the Poisson amino acid model: all
// exchangeabilities equal, equal frequencies (the protein analogue of
// JC69).
func NewPoissonAA() (*Model, error) {
	r := NewMatrix(20)
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			r.Set(i, j, 1)
		}
	}
	return newModelFromRates("Poisson", AminoAcid, r, uniformFreqs(20))
}

// NewEmpiricalAA returns the synthetic empirical amino acid model
// described above: exchangeabilities fall off with physicochemical
// distance, frequencies are uneven. It plays the role GARLI's
// Dayhoff/JTT/WAG options play in the original system.
func NewEmpiricalAA() (*Model, error) {
	r := NewMatrix(20)
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			d := aaDistance(i, j)
			// Exchangeability decays with distance; floor keeps the
			// chain irreducible.
			r.Set(i, j, 0.02+5/(1+d*d))
		}
	}
	return newModelFromRates("EmpiricalAA", AminoAcid, r, syntheticAAFreqs)
}

// aaDistance is a normalized physicochemical distance between amino
// acids i and j.
func aaDistance(i, j int) float64 {
	pi, pj := aaProperties[i], aaProperties[j]
	dh := (pi[0] - pj[0]) / 9.0   // hydrophobicity range ~9
	dv := (pi[1] - pj[1]) / 170.0 // volume range ~170
	dc := pi[2] - pj[2]
	return 3 * (dh*dh + dv*dv + dc*dc)
}
