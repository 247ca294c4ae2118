package beagle

import (
	"fmt"
	"math"
	"testing"

	"lattice/internal/sim"
)

// Kernel oracle. The four generic kernels that multiply a transition
// matrix into a child's partials are kept here as they stood before
// matVec, one left-to-right dot product per output row. Any
// restructuring of the production kernels must reproduce every output
// cell and every scale of these bit for bit: the rows of one S×S
// product are independent, so they may be computed in any grouping,
// but each row's sum must still run x = 0…S−1 in order.

func refFuseIIG(part, scale []float64, a, b *childRef, nPat, C, S int) {
	for p := 0; p < nPat; p++ {
		scale[p] = a.scale[p] + b.scale[p]
		for c := 0; c < C; c++ {
			base := (p*C + c) * S
			m1 := a.mats[c*S*S:]
			m2 := b.mats[c*S*S:]
			v1 := a.part[base : base+S]
			v2 := b.part[base : base+S]
			out := part[base : base+S]
			for s := 0; s < S; s++ {
				r1 := m1[s*S : s*S+S]
				r2 := m2[s*S : s*S+S]
				var d1, d2 float64
				for x := 0; x < S; x++ {
					d1 += r1[x] * v1[x]
				}
				for x := 0; x < S; x++ {
					d2 += r2[x] * v2[x]
				}
				out[s] = d1 * d2
			}
		}
	}
}

func refFuseITG(part, scale []float64, in, tp *childRef, nPat, C, S int) {
	tips, idx := tp.tips, tp.idx
	for p := 0; p < nPat; p++ {
		scale[p] = in.scale[p]
		ti := int(idx[p]) * C
		for c := 0; c < C; c++ {
			base := (p*C + c) * S
			m := in.mats[c*S*S:]
			v := in.part[base : base+S]
			tc := tips[(ti+c)*S : (ti+c)*S+S]
			out := part[base : base+S]
			for s := 0; s < S; s++ {
				r := m[s*S : s*S+S]
				var d float64
				for x := 0; x < S; x++ {
					d += r[x] * v[x]
				}
				out[s] = d * tc[s]
			}
		}
	}
}

func refAccIG(part, scale []float64, a *childRef, nPat, C, S int) {
	for p := 0; p < nPat; p++ {
		scale[p] += a.scale[p]
		for c := 0; c < C; c++ {
			base := (p*C + c) * S
			m := a.mats[c*S*S:]
			v := a.part[base : base+S]
			out := part[base : base+S]
			for s := 0; s < S; s++ {
				r := m[s*S : s*S+S]
				var d float64
				for x := 0; x < S; x++ {
					d += r[x] * v[x]
				}
				out[s] *= d
			}
		}
	}
}

func refWriteI(part, scale []float64, a *childRef, nPat, C, S int) {
	copy(scale[:nPat], a.scale)
	for p := 0; p < nPat; p++ {
		for c := 0; c < C; c++ {
			base := (p*C + c) * S
			m := a.mats[c*S*S:]
			v := a.part[base : base+S]
			out := part[base : base+S]
			for s := 0; s < S; s++ {
				r := m[s*S : s*S+S]
				var d float64
				for x := 0; x < S; x++ {
					d += r[x] * v[x]
				}
				out[s] = d
			}
		}
	}
}

// oracleInputs is one seeded kernel problem: two internal children, one
// tip child, and a prior partial for the accumulate kernel.
type oracleInputs struct {
	nPat, C, S int
	a, b, tip  childRef
	prior      []float64
	priorScale []float64
}

// newOracleInputs draws matrices with rows near stochastic, and
// partials whose pattern blocks cycle through ordinary magnitudes,
// exact zeros, subnormals and columns around 1e-120 (the region
// rescale exists for); every tip index, the missing-data column S
// included, occurs.
func newOracleInputs(seed int64, S, C int) *oracleInputs {
	rng := sim.NewRNG(seed)
	const nPat = 41
	mats := func() []float64 {
		m := make([]float64, C*S*S)
		for i := range m {
			m[i] = rng.Uniform(0, 2) / float64(S)
		}
		return m
	}
	partials := func() []float64 {
		v := make([]float64, nPat*C*S)
		for p := 0; p < nPat; p++ {
			blk := v[p*C*S : (p+1)*C*S]
			for i := range blk {
				switch p % 5 {
				case 0, 1:
					blk[i] = rng.Uniform(0, 1)
				case 2:
					blk[i] = rng.Uniform(0.5, 1.5) * 1e-120
				case 3:
					blk[i] = float64(rng.Intn(9)) * math.SmallestNonzeroFloat64
				default:
					if rng.Intn(3) > 0 {
						blk[i] = rng.Uniform(0, 1)
					}
				}
			}
		}
		return v
	}
	scales := func() []float64 {
		sc := make([]float64, nPat)
		for p := range sc {
			if p%3 > 0 {
				sc[p] = -rng.Uniform(0, 600)
			}
		}
		return sc
	}
	in := &oracleInputs{nPat: nPat, C: C, S: S}
	in.a = childRef{mats: mats(), part: partials(), scale: scales()}
	in.b = childRef{mats: mats(), part: partials(), scale: scales()}
	tips := make([]float64, C*S*(S+1))
	buildTipTables(mats(), tips, S, C)
	idx := make([]uint8, nPat)
	for p := range idx {
		idx[p] = uint8((p * 7) % (S + 1))
	}
	idx[nPat-1] = uint8(S)
	in.tip = childRef{tips: tips, idx: idx}
	in.prior = partials()
	in.priorScale = scales()
	return in
}

func requireBitEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %x (%g), want %x (%g)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

func TestGenericKernelsMatchOracle(t *testing.T) {
	for _, S := range []int{5, 20, 61} {
		for _, C := range []int{1, 4} {
			t.Run(fmt.Sprintf("S=%d/C=%d", S, C), func(t *testing.T) {
				in := newOracleInputs(int64(1000*S+C), S, C)
				n := in.nPat * C * S
				run := func(name string, got, want func(part, scale []float64)) {
					gp, gs := append([]float64(nil), in.prior...), append([]float64(nil), in.priorScale...)
					wp, ws := append([]float64(nil), in.prior...), append([]float64(nil), in.priorScale...)
					got(gp[:n], gs)
					want(wp[:n], ws)
					requireBitEqual(t, name+" part", gp, wp)
					requireBitEqual(t, name+" scale", gs, ws)
				}
				run("fuseIIG",
					func(p, s []float64) { fuseIIG(p, s, &in.a, &in.b, in.nPat, C, S) },
					func(p, s []float64) { refFuseIIG(p, s, &in.a, &in.b, in.nPat, C, S) })
				run("fuseITG",
					func(p, s []float64) { fuseITG(p, s, &in.a, &in.tip, in.nPat, C, S) },
					func(p, s []float64) { refFuseITG(p, s, &in.a, &in.tip, in.nPat, C, S) })
				run("accIG",
					func(p, s []float64) { accIG(p, s, &in.b, in.nPat, C, S) },
					func(p, s []float64) { refAccIG(p, s, &in.b, in.nPat, C, S) })
				run("writeI",
					func(p, s []float64) { writeI(p, s, &in.a, in.nPat, C, S) },
					func(p, s []float64) { refWriteI(p, s, &in.a, in.nPat, C, S) })
			})
		}
	}
}

// TestKernelOracleDiscriminates shows the oracle's inputs can tell
// summation orders apart: a dot product summed right to left, or in
// pairs, differs from the left-to-right one in at least one cell at
// every shape — so a kernel that reassociates cannot pass the test
// above by luck.
func TestKernelOracleDiscriminates(t *testing.T) {
	rightToLeft := func(r, v []float64) float64 {
		var d float64
		for x := len(r) - 1; x >= 0; x-- {
			d += r[x] * v[x]
		}
		return d
	}
	pairwise := func(r, v []float64) float64 {
		var even, odd float64
		for x := 0; x+1 < len(r); x += 2 {
			even += r[x] * v[x]
			odd += r[x+1] * v[x+1]
		}
		if len(r)%2 == 1 {
			even += r[len(r)-1] * v[len(r)-1]
		}
		return even + odd
	}
	for _, S := range []int{5, 20, 61} {
		for _, C := range []int{1, 4} {
			in := newOracleInputs(int64(1000*S+C), S, C)
			want := make([]float64, in.nPat*C*S)
			refWriteI(want, make([]float64, in.nPat), &in.a, in.nPat, C, S)
			for name, dot := range map[string]func(r, v []float64) float64{"right-to-left": rightToLeft, "pairwise": pairwise} {
				differs := false
				for p := 0; p < in.nPat && !differs; p++ {
					for c := 0; c < C && !differs; c++ {
						base := (p*C + c) * S
						m := in.a.mats[c*S*S:]
						for s := 0; s < S; s++ {
							d := dot(m[s*S:s*S+S], in.a.part[base:base+S])
							if math.Float64bits(d) != math.Float64bits(want[base+s]) {
								differs = true
								break
							}
						}
					}
				}
				if !differs {
					t.Errorf("S=%d C=%d: a %s sum is bit-equal to the oracle everywhere; the inputs discriminate nothing", S, C, name)
				}
			}
		}
	}
}

// refRescale is rescale as it stood before the scan stopped early: the
// maximum of every pattern is taken over all C·S values.
func refRescale(part, scale []float64, nPat, C, S int) {
	stride := C * S
	for p := 0; p < nPat; p++ {
		base := p * stride
		maxv := 0.0
		for i := base; i < base+stride; i++ {
			if part[i] > maxv {
				maxv = part[i]
			}
		}
		if maxv > 0 && maxv < 1e-100 {
			inv := 1 / maxv
			for i := base; i < base+stride; i++ {
				part[i] *= inv
			}
			scale[p] += math.Log(maxv)
		}
	}
}

// TestRescaleMatchesFullScan holds rescale to the full-scan oracle on
// hand-built patterns at the edges of its rule, then on the seeded
// kernel inputs, whose blocks mix ordinary, zero, subnormal and
// 1e-120 magnitudes.
func TestRescaleMatchesFullScan(t *testing.T) {
	const C, S = 2, 4
	nan, inf := math.NaN(), math.Inf(1)
	patterns := []struct {
		name     string
		part     [C * S]float64
		rescaled bool
	}{
		{"all below 1e-100", [C * S]float64{3e-120, 7e-150, 9.9e-101, 0, 1e-300, 2e-110, 5e-324, 4e-101}, true},
		{"largest exactly 1e-100", [C * S]float64{2e-120, 1e-100, 3e-101, 0, 1e-200, 5e-110, 1e-101, 7e-105}, false},
		{"1e-100 first", [C * S]float64{1e-100, 2e-120, 3e-101, 4e-150, 0, 0, 1e-300, 9e-101}, false},
		{"large value last", [C * S]float64{2e-120, 3e-130, 1e-140, 4e-101, 0, 5e-200, 6e-110, 0.75}, false},
		{"large value first", [C * S]float64{0.5, 2e-120, 3e-130, 1e-140, 0, 5e-200, 6e-110, 1e-101}, false},
		{"all zeros", [C * S]float64{}, false},
		{"NaN among small", [C * S]float64{nan, 2e-120, 3e-130, 1e-140, 0, 5e-200, 6e-110, 1e-101}, true},
		{"NaN then large", [C * S]float64{2e-120, nan, 3e-130, 1e-140, 0.25, 5e-200, 6e-110, 1e-101}, false},
		{"+Inf", [C * S]float64{2e-120, 3e-130, inf, 1e-140, 0, 5e-200, 6e-110, 1e-101}, false},
		{"+Inf last", [C * S]float64{2e-120, 3e-130, 4e-101, 1e-140, 0, 5e-200, 6e-110, inf}, false},
	}
	for _, pt := range patterns {
		got, want := pt.part[:], append([]float64(nil), pt.part[:]...)
		gs, ws := []float64{-12.5}, []float64{-12.5}
		rescale(got, gs, 1, C, S)
		refRescale(want, ws, 1, C, S)
		requireBitEqual(t, pt.name+" part", got, want)
		requireBitEqual(t, pt.name+" scale", gs, ws)
		if rescaled := ws[0] != -12.5; rescaled != pt.rescaled {
			t.Errorf("%s: the oracle rescaled %v, want %v", pt.name, rescaled, pt.rescaled)
		}
	}
	for _, S := range []int{4, 20, 61} {
		in := newOracleInputs(int64(7000+S), S, 4)
		gp, gs := append([]float64(nil), in.prior...), append([]float64(nil), in.priorScale...)
		wp, ws := append([]float64(nil), in.prior...), append([]float64(nil), in.priorScale...)
		rescale(gp, gs, in.nPat, 4, S)
		refRescale(wp, ws, in.nPat, 4, S)
		requireBitEqual(t, fmt.Sprintf("S=%d part", S), gp, wp)
		requireBitEqual(t, fmt.Sprintf("S=%d scale", S), gs, ws)
	}
}
