package phylo

import "math"

// Float tolerance helpers backing the floatcmp analyzer's guidance:
// likelihoods, branch lengths and rate parameters accumulate rounding
// error, so exact == between computed values is almost always a bug.
// Compare through these instead.

// AlmostEqual reports whether a and b agree to within tol, combining
// absolute and relative tolerance: |a-b| <= tol covers values near
// zero, |a-b| <= tol*max(|a|,|b|) covers large magnitudes. NaN is
// never equal to anything; infinities are equal only to themselves.
func AlmostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b //lint:allow floatcmp -- infinities carry no rounding error
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	return diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// LogLTol is the default tolerance for comparing log-likelihoods:
// tree scores differing by less than this are the same tree score for
// search and consensus purposes.
const LogLTol = 1e-9

// SameLogL reports whether two log-likelihoods are equal to within
// LogLTol (relative for large magnitudes, absolute near zero).
//
//lint:allow deadexport -- the comparison README "Static analysis & correctness gates" (floatcmp) tells engine code to use instead of ==; today only tests compare two scores
func SameLogL(a, b float64) bool { return AlmostEqual(a, b, LogLTol) }
