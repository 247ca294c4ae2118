package phylo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLowerIncompleteGammaKnownValues(t *testing.T) {
	// P(1, x) = 1 - exp(-x).
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		got := lowerIncompleteGammaP(1, x)
		want := 1 - math.Exp(-x)
		if !almostEqual(got, want, 1e-10) {
			t.Errorf("P(1,%v) = %v, want %v", x, got, want)
		}
	}
	// P(0.5, x) = erf(sqrt(x)).
	for _, x := range []float64{0.25, 1, 4} {
		got := lowerIncompleteGammaP(0.5, x)
		want := math.Erf(math.Sqrt(x))
		if !almostEqual(got, want, 1e-10) {
			t.Errorf("P(0.5,%v) = %v, want %v", x, got, want)
		}
	}
}

func TestIncompleteGammaMonotoneBounded(t *testing.T) {
	f := func(rawA, rawX uint16) bool {
		a := 0.05 + float64(rawA%1000)/100
		x := float64(rawX%2000) / 100
		p := lowerIncompleteGammaP(a, x)
		if p < 0 || p > 1 || math.IsNaN(p) {
			return false
		}
		// Monotone in x.
		p2 := lowerIncompleteGammaP(a, x+0.5)
		return p2 >= p-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGammaQuantileInverse(t *testing.T) {
	for _, shape := range []float64{0.2, 0.5, 1, 2.7, 10} {
		for _, p := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
			x := gammaQuantile(p, shape, 1)
			back := lowerIncompleteGammaP(shape, x)
			if !almostEqual(back, p, 1e-7) {
				t.Errorf("quantile round trip shape=%v p=%v: got %v", shape, p, back)
			}
		}
	}
}

func TestNormalQuantile(t *testing.T) {
	cases := map[float64]float64{
		0.5:    0,
		0.975:  1.959964,
		0.025:  -1.959964,
		0.8413: 0.99982, // ~Phi(1)
	}
	for p, want := range cases {
		if got := normalQuantile(p); !almostEqual(got, want, 1e-3) {
			t.Errorf("normalQuantile(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestDiscreteGammaRatesMeanOne(t *testing.T) {
	for _, alpha := range []float64{0.1, 0.5, 1, 2, 10} {
		for _, k := range []int{1, 2, 4, 8} {
			rates := DiscreteGammaRates(alpha, k)
			if len(rates) != k {
				t.Fatalf("got %d rates, want %d", len(rates), k)
			}
			var mean float64
			for _, r := range rates {
				if r < 0 {
					t.Fatalf("negative rate %v (alpha=%v k=%d)", r, alpha, k)
				}
				mean += r
			}
			mean /= float64(k)
			if !almostEqual(mean, 1, 1e-9) {
				t.Errorf("alpha=%v k=%d: mean rate %v, want 1", alpha, k, mean)
			}
			// Rates must be increasing across categories.
			for i := 1; i < k; i++ {
				if rates[i] < rates[i-1] {
					t.Errorf("alpha=%v k=%d: rates not sorted: %v", alpha, k, rates)
				}
			}
		}
	}
}

func TestDiscreteGammaSpreadShrinksWithAlpha(t *testing.T) {
	// Larger alpha = less heterogeneity = rates closer to 1.
	spread := func(alpha float64) float64 {
		r := DiscreteGammaRates(alpha, 4)
		return r[3] - r[0]
	}
	if !(spread(0.3) > spread(1) && spread(1) > spread(10)) {
		t.Errorf("spread not decreasing: %v %v %v", spread(0.3), spread(1), spread(10))
	}
}

func TestSiteRatesMixtures(t *testing.T) {
	hom, err := NewSiteRates(RateHomogeneous, 0, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if hom.NumCats() != 1 || hom.Rates[0] != 1 {
		t.Errorf("homogeneous mixture wrong: %+v", hom)
	}
	g, err := NewSiteRates(RateGamma, 0.5, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCats() != 4 {
		t.Errorf("gamma should have 4 cats, got %d", g.NumCats())
	}
	gi, err := NewSiteRates(RateGammaInv, 0.5, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if gi.NumCats() != 5 {
		t.Errorf("gamma+inv should have 5 cats, got %d", gi.NumCats())
	}
	if gi.Rates[0] != 0 {
		t.Errorf("invariant class rate = %v, want 0", gi.Rates[0])
	}
	// Mixture mean rate must be 1 and weights sum to 1.
	var mean, wsum float64
	for i := range gi.Rates {
		mean += gi.Rates[i] * gi.Weights[i]
		wsum += gi.Weights[i]
	}
	if !almostEqual(mean, 1, 1e-9) || !almostEqual(wsum, 1, 1e-9) {
		t.Errorf("gamma+inv mixture mean=%v wsum=%v, want 1,1", mean, wsum)
	}
}

func TestSiteRatesErrors(t *testing.T) {
	if _, err := NewSiteRates(RateGamma, -1, 0, 4); err == nil {
		t.Error("expected error for negative shape")
	}
	if _, err := NewSiteRates(RateGamma, 1, 0, 0); err == nil {
		t.Error("expected error for zero categories")
	}
	if _, err := NewSiteRates(RateGammaInv, 1, 1.5, 4); err == nil {
		t.Error("expected error for pinv >= 1")
	}
}

// TestDiscreteGammaRatesHoldToTheBound: up to MaxGammaShape the
// discrete-gamma quadrature follows the α→∞ normal limit, where
// (top − bottom)·√α tends to the spread of k equal-mass normal
// category means, and its rates ascend. Past the bound they drift off
// the limit and then stop ascending, which is why NewSiteRates and the
// door refuse such a shape.
func TestDiscreteGammaRatesHoldToTheBound(t *testing.T) {
	for k, want := range map[int]float64{2: 1.5958, 4: 2.5422, 8: 3.2936, 16: 3.9355} {
		r := DiscreteGammaRates(MaxGammaShape, k)
		if got := (r[k-1] - r[0]) * math.Sqrt(MaxGammaShape); !almostEqual(got, want, 5e-4) {
			t.Errorf("k=%d at α=%g: (top−bottom)·√α = %.4f, normal limit %.4f", k, MaxGammaShape, got, want)
		}
		for i := 1; i < k; i++ {
			if !(r[i] > r[i-1]) {
				t.Errorf("k=%d at α=%g: rates %v do not ascend", k, MaxGammaShape, r)
				break
			}
		}
	}
}
