package phylo

import (
	"fmt"
	"math"
)

// Matrix is a small dense square matrix stored row-major. Substitution
// models are at most 61×61 (codon models), so simple dense routines
// are appropriate; no sparse or blocked structure is needed.
type Matrix struct {
	N    int
	Data []float64
}

// NewMatrix returns a zeroed n×n matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{N: n, Data: make([]float64, n*n)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.N+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.N)
	copy(c.Data, m.Data)
	return c
}

// jacobiEigen computes the eigendecomposition of a symmetric matrix
// using cyclic Jacobi rotations. It returns the eigenvalues and a
// matrix whose columns are the corresponding orthonormal eigenvectors.
// The input is not modified. Jacobi is slow asymptotically but
// perfectly adequate (and very robust) at substitution-model sizes.
func jacobiEigen(a *Matrix) (vals []float64, vecs *Matrix, err error) {
	n := a.N
	w := a.Clone()
	v := NewMatrix(n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if off < 1e-24 {
			vals = make([]float64, n)
			for i := 0; i < n; i++ {
				vals[i] = w.At(i, i)
			}
			return vals, v, nil
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Apply rotation to w on both sides.
				for k := 0; k < n; k++ {
					wkp, wkq := w.At(k, p), w.At(k, q)
					w.Set(k, p, c*wkp-s*wkq)
					w.Set(k, q, s*wkp+c*wkq)
				}
				for k := 0; k < n; k++ {
					wpk, wqk := w.At(p, k), w.At(q, k)
					w.Set(p, k, c*wpk-s*wqk)
					w.Set(q, k, s*wpk+c*wqk)
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	return nil, nil, fmt.Errorf("phylo: Jacobi eigensolver did not converge in %d sweeps", maxSweeps)
}

// EigenSystem holds the spectral decomposition of a reversible rate
// matrix Q, prepared so that transition probability matrices
// P(t) = exp(Qt) can be computed with two small matrix products.
//
// For a reversible Q with stationary distribution pi, the matrix
// B = D^(1/2) Q D^(-1/2) (D = diag(pi)) is symmetric. If B = U L U^T,
// then exp(Qt) = D^(-1/2) U exp(Lt) U^T D^(1/2). We store
// C1 = D^(-1/2) U and C2 = U^T D^(1/2) so P(t) = C1 exp(Lt) C2.
type EigenSystem struct {
	N      int
	Values []float64
	C1, C2 *Matrix
}

// NewEigenSystem decomposes the reversible rate matrix q with
// stationary frequencies pi. It returns an error if the decomposition
// fails or inputs are inconsistent.
func NewEigenSystem(q *Matrix, pi []float64) (*EigenSystem, error) {
	n := q.N
	if len(pi) != n {
		return nil, fmt.Errorf("phylo: frequency vector length %d does not match matrix size %d", len(pi), n)
	}
	for i, p := range pi {
		if p <= 0 {
			return nil, fmt.Errorf("phylo: stationary frequency %d is %g; must be positive", i, p)
		}
	}
	b := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, q.At(i, j)*math.Sqrt(pi[i]/pi[j]))
		}
	}
	// Force exact symmetry against rounding.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s := 0.5 * (b.At(i, j) + b.At(j, i))
			b.Set(i, j, s)
			b.Set(j, i, s)
		}
	}
	vals, u, err := jacobiEigen(b)
	if err != nil {
		return nil, err
	}
	c1 := NewMatrix(n)
	c2 := NewMatrix(n)
	for i := 0; i < n; i++ {
		si := math.Sqrt(pi[i])
		for j := 0; j < n; j++ {
			c1.Set(i, j, u.At(i, j)/si)
			c2.Set(j, i, u.At(i, j)*si)
		}
	}
	return &EigenSystem{N: n, Values: vals, C1: c1, C2: c2}, nil
}

// TransitionProbsInto writes exp(Q·t) into dst, a flat row-major N×N
// slice, using expScratch (length ≥ N) for the eigenvalue
// exponentials. Small negative entries from rounding are clamped to
// zero and rows renormalized. It allocates nothing, so callers that
// cache many matrices (the beagle engine's transition cache) can
// recycle both buffers freely.
//
// Entry (i, j) is Σₖ (C1[i][k]·e^{λₖt})·C2[k][j], summed for k = 0…N−1
// left to right. Four columns are summed per sweep over k, in four
// accumulators, so four independent chains of adds run at once rather
// than one chain at add latency. Each accumulator adds its own terms in
// k order with that grouping, so every entry is the plain triple loop's
// value bit for bit (matrix_test.go holds that loop as the oracle).
// Columns past the last multiple of four take the plain loop.
func (es *EigenSystem) TransitionProbsInto(t float64, dst, expScratch []float64) {
	n := es.N
	if len(dst) < n*n || len(expScratch) < n {
		panic("phylo: TransitionProbsInto scratch too small")
	}
	expl := expScratch[:n]
	for k, l := range es.Values {
		expl[k] = math.Exp(l * t)
	}
	c1, c2 := es.C1.Data, es.C2.Data
	for i := 0; i < n; i++ {
		c1i := c1[i*n : i*n+n]
		out := dst[i*n : i*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var s0, s1, s2, s3 float64
			for k, e := range expl {
				a := c1i[k] * e
				c := c2[k*n+j : k*n+j+4]
				s0 += a * c[0]
				s1 += a * c[1]
				s2 += a * c[2]
				s3 += a * c[3]
			}
			// Not max(s, 0): the builtin turns −0 into +0.
			if s0 < 0 {
				s0 = 0
			}
			if s1 < 0 {
				s1 = 0
			}
			if s2 < 0 {
				s2 = 0
			}
			if s3 < 0 {
				s3 = 0
			}
			out[j], out[j+1], out[j+2], out[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			var s float64
			for k, e := range expl {
				s += c1i[k] * e * c2[k*n+j]
			}
			if s < 0 {
				s = 0
			}
			out[j] = s
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
}
