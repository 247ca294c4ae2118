package phylo

import (
	"fmt"
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestJacobiEigenDiagonal(t *testing.T) {
	m := NewMatrix(3)
	m.Set(0, 0, 2)
	m.Set(1, 1, -1)
	m.Set(2, 2, 5)
	vals, vecs, err := jacobiEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	want := map[float64]bool{2: true, -1: true, 5: true}
	for _, v := range vals {
		found := false
		for w := range want {
			if almostEqual(v, w, 1e-10) {
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected eigenvalue %v", v)
		}
	}
	// Eigenvectors orthonormal.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			var dot float64
			for k := 0; k < 3; k++ {
				dot += vecs.At(k, i) * vecs.At(k, j)
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEqual(dot, want, 1e-10) {
				t.Errorf("vec dot(%d,%d) = %v, want %v", i, j, dot, want)
			}
		}
	}
}

func TestJacobiEigenReconstruction(t *testing.T) {
	// Random-ish symmetric matrix: A = V L V^T must reproduce A.
	n := 6
	a := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := math.Sin(float64(i*7+j*3+1)) * 2
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	vals, vecs, err := jacobiEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += vecs.At(i, k) * vals[k] * vecs.At(j, k)
			}
			if !almostEqual(s, a.At(i, j), 1e-8) {
				t.Fatalf("reconstruction (%d,%d) = %v, want %v", i, j, s, a.At(i, j))
			}
		}
	}
}

func TestTransitionMatrixIdentityAtZero(t *testing.T) {
	m, err := NewGTR([6]float64{1, 2, 1.5, 0.7, 4, 1}, []float64{0.3, 0.2, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	p := transitionMatrix(m.Eigen(), 0)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEqual(p.At(i, j), want, 1e-9) {
				t.Errorf("P(0)[%d,%d] = %v, want %v", i, j, p.At(i, j), want)
			}
		}
	}
}

func TestTransitionMatrixRowsSumToOne(t *testing.T) {
	m, err := NewHKY85(3.5, []float64{0.35, 0.15, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for _, bl := range []float64{0.001, 0.05, 0.3, 1.5, 10} {
		p := transitionMatrix(m.Eigen(), bl)
		for i := 0; i < 4; i++ {
			var row float64
			for j := 0; j < 4; j++ {
				v := p.At(i, j)
				if v < 0 || v > 1 {
					t.Fatalf("P(%v)[%d,%d] = %v out of [0,1]", bl, i, j, v)
				}
				row += v
			}
			if !almostEqual(row, 1, 1e-9) {
				t.Errorf("row %d of P(%v) sums to %v", i, bl, row)
			}
		}
	}
}

func TestTransitionMatrixChapmanKolmogorov(t *testing.T) {
	m, err := NewGTR([6]float64{1.2, 3.1, 0.8, 1.1, 4.2, 1}, []float64{0.28, 0.22, 0.24, 0.26})
	if err != nil {
		t.Fatal(err)
	}
	es := m.Eigen()
	s, u := 0.13, 0.41
	ps := transitionMatrix(es, s)
	pu := transitionMatrix(es, u)
	psu := transitionMatrix(es, s+u)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			var prod float64
			for k := 0; k < 4; k++ {
				prod += ps.At(i, k) * pu.At(k, j)
			}
			if !almostEqual(prod, psu.At(i, j), 1e-8) {
				t.Errorf("C-K violated at (%d,%d): %v vs %v", i, j, prod, psu.At(i, j))
			}
		}
	}
}

func TestDetailedBalance(t *testing.T) {
	freqs := []float64{0.4, 0.1, 0.15, 0.35}
	m, err := NewGTR([6]float64{0.5, 2, 1, 1.3, 3.7, 1}, freqs)
	if err != nil {
		t.Fatal(err)
	}
	p := transitionMatrix(m.Eigen(), 0.25)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			lhs := m.Freqs[i] * p.At(i, j)
			rhs := m.Freqs[j] * p.At(j, i)
			if !almostEqual(lhs, rhs, 1e-9) {
				t.Errorf("detailed balance violated at (%d,%d): %v vs %v", i, j, lhs, rhs)
			}
		}
	}
}

func TestJC69ClosedForm(t *testing.T) {
	m, err := NewJC69()
	if err != nil {
		t.Fatal(err)
	}
	for _, bl := range []float64{0.01, 0.1, 0.5, 2} {
		p := transitionMatrix(m.Eigen(), bl)
		same := 0.25 + 0.75*math.Exp(-4*bl/3)
		diff := 0.25 - 0.25*math.Exp(-4*bl/3)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				want := diff
				if i == j {
					want = same
				}
				if !almostEqual(p.At(i, j), want, 1e-9) {
					t.Errorf("JC69 P(%v)[%d,%d] = %v, want %v", bl, i, j, p.At(i, j), want)
				}
			}
		}
	}
}

func TestLongBranchReachesStationarity(t *testing.T) {
	freqs := []float64{0.45, 0.05, 0.25, 0.25}
	m, err := NewHKY85(2, freqs)
	if err != nil {
		t.Fatal(err)
	}
	p := transitionMatrix(m.Eigen(), 500)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if !almostEqual(p.At(i, j), m.Freqs[j], 1e-6) {
				t.Errorf("P(inf)[%d,%d] = %v, want stationary %v", i, j, p.At(i, j), m.Freqs[j])
			}
		}
	}
}

func TestEigenSystemRejectsBadInput(t *testing.T) {
	q := NewMatrix(4)
	if _, err := NewEigenSystem(q, []float64{0.5, 0.5}); err == nil {
		t.Error("expected error for mismatched frequency vector")
	}
	if _, err := NewEigenSystem(q, []float64{0.5, 0.5, 0, 0}); err == nil {
		t.Error("expected error for zero frequency")
	}
}

// transitionMatrix is exp(Q·t) as a fresh Matrix, for tests that read
// it with At.
func transitionMatrix(es *EigenSystem, t float64) *Matrix {
	m := NewMatrix(es.N)
	es.TransitionProbsInto(t, m.Data, make([]float64, es.N))
	return m
}

// refTransitionProbs is the exp(Q·t) kernel as it stood before its
// columns were tiled: one left-to-right chain over k per entry, the
// same clamp and the same row renormalization. TransitionProbsInto must
// reproduce every entry bit for bit.
func refTransitionProbs(es *EigenSystem, t float64) []float64 {
	n := es.N
	dst := make([]float64, n*n)
	expl := make([]float64, n)
	for k, l := range es.Values {
		expl[k] = math.Exp(l * t)
	}
	c1, c2 := es.C1.Data, es.C2.Data
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += c1[i*n+k] * expl[k] * c2[k*n+j]
			}
			if s < 0 {
				s = 0
			}
			dst[i*n+j] = s
		}
	}
	for i := 0; i < n; i++ {
		var row float64
		for j := 0; j < n; j++ {
			row += dst[i*n+j]
		}
		if row > 0 {
			inv := 1 / row
			for j := 0; j < n; j++ {
				dst[i*n+j] *= inv
			}
		}
	}
	return dst
}

// oracleModels are one model of each family the engine serves, at
// n = 4, 20 and 61 states.
func oracleModels(tb testing.TB) map[string]*Model {
	tb.Helper()
	jc, err1 := NewJC69()
	hky, err2 := NewHKY85(3.5, []float64{0.35, 0.15, 0.2, 0.3})
	gtr, err3 := NewGTR([6]float64{1.2, 3.1, 0.8, 1.1, 4.2, 1}, []float64{0.28, 0.22, 0.24, 0.26})
	aa, err4 := NewEmpiricalAA()
	codon, err5 := NewGY94(2, 0.3, nil)
	for _, err := range []error{err1, err2, err3, err4, err5} {
		if err != nil {
			tb.Fatal(err)
		}
	}
	return map[string]*Model{"JC69": jc, "HKY85": hky, "GTR": gtr, "empirical": aa, "GY94": codon}
}

// requireSameProbs fails unless got and want hold the same bits.
func requireSameProbs(tb testing.TB, what string, got, want []float64) {
	tb.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			tb.Fatalf("%s: entry %d = %x (%g), want %x (%g)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

func TestTransitionProbsMatchOracle(t *testing.T) {
	rates, err := NewSiteRates(RateGamma, 0.5, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range oracleModels(t) {
		es := m.Eigen()
		n := es.N
		// A stale destination and an oversized scratch: every entry
		// must be written, and only expScratch[:N] read.
		dst := make([]float64, n*n+3)
		scratch := make([]float64, n+5)
		for i := range dst {
			dst[i] = math.NaN()
		}
		for _, bl := range []float64{0, 1e-12, 1e-3, 0.1, 1, 10, 500} {
			for _, r := range rates.Rates {
				es.TransitionProbsInto(bl*r, dst, scratch)
				requireSameProbs(t, fmt.Sprintf("%s P(%g·%g)", name, bl, r), dst[:n*n], refTransitionProbs(es, bl*r))
			}
		}
		if !math.IsNaN(dst[n*n]) {
			t.Errorf("%s: wrote past N×N", name)
		}
	}
}

// FuzzTransitionProbs holds TransitionProbsInto to the triple-loop
// oracle at any branch length, the negative, infinite and NaN ones
// included, for each model family and for GTR matrices of fuzzed rates.
func FuzzTransitionProbs(f *testing.F) {
	models := oracleModels(f)
	names := []string{"JC69", "HKY85", "GTR", "empirical", "GY94"}
	for i := range names {
		f.Add(uint8(i), 0.1, 1.0, 1.0)
	}
	f.Add(uint8(5), 0.37, 2.5, 0.2)
	f.Add(uint8(1), -3.0, 1.0, 1.0)
	f.Add(uint8(4), math.Inf(1), 1.0, 1.0)
	f.Fuzz(func(t *testing.T, kind uint8, bl, r1, r2 float64) {
		var m *Model
		if k := int(kind) % (len(names) + 1); k < len(names) {
			m = models[names[k]]
		} else {
			if !(r1 > 1e-6 && r1 < 1e6 && r2 > 1e-6 && r2 < 1e6) {
				t.Skip()
			}
			var err error
			if m, err = NewGTR([6]float64{r1, r2, 1, 0.5, 2, 1}, []float64{0.1, 0.2, 0.3, 0.4}); err != nil {
				t.Skip()
			}
		}
		es := m.Eigen()
		dst := make([]float64, es.N*es.N)
		es.TransitionProbsInto(bl, dst, make([]float64, es.N))
		requireSameProbs(t, fmt.Sprintf("%s P(%g)", m.Name, bl), dst, refTransitionProbs(es, bl))
	})
}

// BenchmarkTransitionProbs times one exp(Q·t) at n = 4, 20 and 61.
func BenchmarkTransitionProbs(b *testing.B) {
	models := oracleModels(b)
	for _, name := range []string{"GTR", "empirical", "GY94"} {
		es := models[name].Eigen()
		dst, scratch := make([]float64, es.N*es.N), make([]float64, es.N)
		b.Run(fmt.Sprintf("n=%d", es.N), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				es.TransitionProbsInto(0.1, dst, scratch)
			}
		})
	}
}
