package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// oracleSeeds cover the seed reduction's edges: zero (replaced by
// 89482311), the modulus 2³¹−1 itself (which reduces to zero), its
// successor, negatives small and large, and seeds the tree grows from.
var oracleSeeds = []int64{0, 1, -1, 1<<31 - 1, 1 << 31, -1 << 40, 89482311, 0x9E3779B9 * 499}

// oracleDraws is how many values each method draws per seed.
const oracleDraws = 1_000_000

// oracleIntns are the bounds Intn draws under: powers of two, small
// and large odd bounds, and the largest a 32-bit int holds, so both of
// math/rand's bounded paths (and its rejection loop) run; a 64-bit
// target adds a bound past 2³¹.
func oracleIntns() []int {
	ns := []int{1, 2, 3, 7, 150, 1000, 1<<30 + 1, math.MaxInt32}
	if big := int64(1)<<40 + 3; int64(int(big)) == big {
		ns = append(ns, int(big))
	}
	return ns
}

// TestSourceMatchesMathRand holds the stream to math/rand's, draw for
// draw: at every oracle seed, each method's first 10^6 values from
// NewRNG must equal rand.New(rand.NewSource(seed))'s. Perm draws its
// 10^6 values as Perm(1), Perm(2), … so every Intn bound below 1415
// is taken too.
func TestSourceMatchesMathRand(t *testing.T) {
	ns := oracleIntns()
	methods := []struct {
		name string
		draw func(r *rand.Rand, i int) uint64
	}{
		{"Int63", func(r *rand.Rand, _ int) uint64 { return uint64(r.Int63()) }},
		{"Uint64", func(r *rand.Rand, _ int) uint64 { return r.Uint64() }},
		{"Float64", func(r *rand.Rand, _ int) uint64 { return math.Float64bits(r.Float64()) }},
		{"Intn", func(r *rand.Rand, i int) uint64 { return uint64(r.Intn(ns[i%len(ns)])) }},
		{"NormFloat64", func(r *rand.Rand, _ int) uint64 { return math.Float64bits(r.NormFloat64()) }},
		{"ExpFloat64", func(r *rand.Rand, _ int) uint64 { return math.Float64bits(r.ExpFloat64()) }},
	}
	for _, seed := range oracleSeeds {
		for _, m := range methods {
			got, want := NewRNG(seed).r, rand.New(rand.NewSource(seed))
			for i := 0; i < oracleDraws; i++ {
				if g, w := m.draw(got, i), m.draw(want, i); g != w {
					t.Fatalf("seed %d: %s draw %d is %#x, math/rand's %#x", seed, m.name, i, g, w)
				}
			}
		}
		got, want := NewRNG(seed), rand.New(rand.NewSource(seed))
		for n, drawn := 1, 0; drawn < oracleDraws; n, drawn = n+1, drawn+n {
			if g, w := got.Perm(n), want.Perm(n); !slices.Equal(g, w) {
				t.Fatalf("seed %d: Perm(%d) after %d draws is %v, math/rand's %v", seed, n, drawn, g, w)
			}
		}
	}
}

// FuzzSourceSeed holds Reseed to math/rand's seeding at any seed: the
// reseeded stream's first values, across the feedback register's full
// 607-entry cycle and past it, must equal rand.NewSource(seed)'s.
func FuzzSourceSeed(f *testing.F) {
	for _, seed := range oracleSeeds {
		f.Add(seed)
	}
	f.Add(int64(math.MinInt64))
	f.Add(int64(math.MaxInt64))
	g := NewRNG(7)
	f.Fuzz(func(t *testing.T, seed int64) {
		g.Reseed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 2000; i++ {
			if x, y := g.r.Uint64(), want.Uint64(); x != y {
				t.Fatalf("seed %d: draw %d is %#x, math/rand's %#x", seed, i, x, y)
			}
		}
	})
}
