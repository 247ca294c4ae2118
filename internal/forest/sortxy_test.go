package forest

import (
	"math"
	"slices"
	"testing"

	"lattice/internal/sim"
)

// sortXYOracle is the sort bestNumericSplit made before sortXY.
func sortXYOracle(ps []xy) {
	slices.SortFunc(ps, func(a, b xy) int { return cmpFloat(a.x, b.x) })
}

// checkSortXY sorts a copy of ps with sortXY and one with the oracle
// and requires the same (x, y) bit sequence. Each pair's y is its
// input position, so a tie group left in any other order shows.
func checkSortXY(t *testing.T, name string, xs []float64) {
	t.Helper()
	got := make([]xy, len(xs))
	for i, x := range xs {
		got[i] = xy{x, float64(i)}
	}
	want := slices.Clone(got)
	sortXY(got)
	sortXYOracle(want)
	for i := range got {
		g, w := got[i], want[i]
		if math.Float64bits(g.x) != math.Float64bits(w.x) || math.Float64bits(g.y) != math.Float64bits(w.y) {
			t.Fatalf("%s, n=%d: position %d is (%v, %v), slices.SortFunc's (%v, %v)", name, len(xs), i, g.x, g.y, w.x, w.y)
		}
	}
}

// antiquicksort returns McIlroy's adversarial input for slices.SortFunc
// at length n ("A killer adversary for quicksort", 1999): a comparator
// that fixes values only as the sort asks about them makes every pivot
// as bad as the algorithm lets it, which drives pdqsort through
// breakPatterns to its heapsort fallback. The values it fixed, with the
// untouched rest tied above them, are an input on which the same sort
// makes the same comparisons again.
func antiquicksort(n int) []float64 {
	gas := n
	val := make([]int, n)
	for i := range val {
		val[i] = gas
	}
	solid, candidate := 0, 0
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		if val[a] == gas && val[b] == gas {
			if a == candidate {
				val[a] = solid
			} else {
				val[b] = solid
			}
			solid++
		}
		if val[a] == gas {
			candidate = a
		} else if val[b] == gas {
			candidate = b
		}
		return val[a] - val[b]
	})
	xs := make([]float64, n)
	for i, v := range val {
		xs[i] = float64(v)
	}
	return xs
}

// xyPatterns are the inputs TestSortXYMatchesSortFunc sorts at each
// length: few distinct values (the split scans' common case, where tie
// order matters), continuous values, and the shapes pdqsort treats
// apart — sorted, reversed, all equal, sawtooth, sorted but for a few
// swaps, and the adversary that reaches heapsort.
var xyPatterns = []struct {
	name string
	gen  func(rng *sim.RNG, n int) []float64
}{
	{"two values", func(rng *sim.RNG, n int) []float64 { return fill(n, func(int) float64 { return float64(rng.Intn(2)) }) }},
	{"five values", func(rng *sim.RNG, n int) []float64 { return fill(n, func(int) float64 { return float64(rng.Intn(5)) }) }},
	{"continuous", func(rng *sim.RNG, n int) []float64 { return fill(n, func(int) float64 { return rng.Float64() }) }},
	{"sorted", func(_ *sim.RNG, n int) []float64 { return fill(n, func(i int) float64 { return float64(i) }) }},
	{"reversed", func(_ *sim.RNG, n int) []float64 { return fill(n, func(i int) float64 { return float64(n - i) }) }},
	{"all equal", func(_ *sim.RNG, n int) []float64 { return fill(n, func(int) float64 { return 3 }) }},
	{"sawtooth", func(_ *sim.RNG, n int) []float64 { return fill(n, func(i int) float64 { return float64(i % 7) }) }},
	{"long sawtooth", func(_ *sim.RNG, n int) []float64 {
		return fill(n, func(i int) float64 { return float64(i % (n/3 + 1)) })
	}},
	{"organ pipe", func(_ *sim.RNG, n int) []float64 { return fill(n, func(i int) float64 { return float64(min(i, n-i)) }) }},
	{"nearly sorted", func(rng *sim.RNG, n int) []float64 {
		xs := fill(n, func(i int) float64 { return float64(i / 2) })
		for k := 0; k < 3 && n > 1; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			xs[i], xs[j] = xs[j], xs[i]
		}
		return xs
	}},
	{"adversary", func(_ *sim.RNG, n int) []float64 { return antiquicksort(n) }},
}

func fill(n int, f func(i int) float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f(i)
	}
	return xs
}

// TestSortXYMatchesSortFunc holds sortXY to slices.SortFunc over every
// pattern at lengths on both sides of pdqsort's thresholds: insertion
// sort up to 12, median-of-three from 8, Tukey's ninther and shifting
// in partialInsertionSort from 50. At 40, 49, 123, 187 and 603 the
// adversary reaches heapsort (counted in an instrumented copy of
// sortXY; most other lengths do not).
func TestSortXYMatchesSortFunc(t *testing.T) {
	rng := sim.NewRNG(57)
	lengths := []int{0, 1, 2, 3, 7, 8, 11, 12, 13, 14, 40, 49, 50, 51, 64, 100, 123, 150, 187, 257, 603, 2000}
	for _, p := range xyPatterns {
		for _, n := range lengths {
			for rep := 0; rep < 4; rep++ {
				checkSortXY(t, p.name, p.gen(rng, n))
			}
		}
	}
}

// FuzzSortXY is the same comparison over arbitrary inputs: the first
// byte picks how many distinct values the rest are folded into (or, for
// 0, keeps each byte, 0xff as a NaN, which compares false both ways).
func FuzzSortXY(f *testing.F) {
	rng := sim.NewRNG(11)
	for _, n := range []int{12, 13, 50, 51, 300} {
		for _, k := range []byte{0, 1, 2, 3, 9} {
			in := []byte{k}
			for i := 0; i < n; i++ {
				in = append(in, byte(rng.Intn(256)))
			}
			f.Add(in)
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		k, body := int(in[0]), in[1:]
		xs := make([]float64, len(body))
		for i, b := range body {
			switch {
			case k != 0:
				xs[i] = float64(int(b) % k)
			case b == 0xff:
				xs[i] = math.NaN()
			default:
				xs[i] = float64(int8(b))
			}
		}
		checkSortXY(t, "fuzz", xs)
	})
}
