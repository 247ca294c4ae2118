package sim

import (
	"math"
	"math/rand"
)

// RNG is a seeded source of pseudo-random variates with the
// distributions the simulators need. Each component of a simulation
// should own its own RNG stream (derived with Stream) so that adding
// randomness consumption in one component does not perturb another —
// this keeps experiments comparable across code changes.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Reseed returns the generator to the state NewRNG(seed) starts in,
// reusing its source: a loop that needs a fresh stream per iteration
// (one per forest tree) pays for the 5 kB source once.
func (g *RNG) Reseed(seed int64) { g.r.Seed(seed) }

// Stream derives an independent generator from this one, labelled by
// name. The derivation is deterministic: the same parent seed and name
// always yield the same stream.
func (g *RNG) Stream(name string) *RNG {
	// Mix the name into a new seed with FNV-1a over the parent's
	// base draw; stable across runs.
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	base := g.r.Int63()
	return NewRNG(int64(h^uint64(base)) & math.MaxInt64)
}

// Float64 returns a uniform variate in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform integer in [0, n). n must be positive.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Uniform returns a uniform variate in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Normal returns a normal variate with the given mean and standard
// deviation.
//
//lint:allow deadexport -- the noise source of internal/forest's synthetic datasets and reference-oracle tests (internal/README.md "forest"); production draws LogNormal
func (g *RNG) Normal(mean, sd float64) float64 {
	return mean + sd*g.r.NormFloat64()
}

// LogNormal returns a log-normal variate where the underlying normal
// has mean mu and standard deviation sigma. Host speeds and
// availability burst lengths in desktop grids are classically
// log-normal-ish heavy-tailed.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*g.r.NormFloat64())
}

// Exp returns an exponential variate with the given mean (not rate).
// The mean must be positive.
func (g *RNG) Exp(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// ExpDuration returns an exponential Duration with the given mean.
func (g *RNG) ExpDuration(mean Duration) Duration {
	return Duration(g.Exp(float64(mean)))
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Choice returns a uniform index into a collection of size n weighted
// by weights; weights must be non-negative and not all zero.
func (g *RNG) Choice(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		panic("sim: Choice with non-positive total weight")
	}
	x := g.r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// PermInto fills buf with the permutation Perm(len(buf)) would return,
// consuming exactly the same draws, without allocating. buf's previous
// contents do not matter.
func (g *RNG) PermInto(buf []int) {
	// math/rand's inside-out Fisher–Yates, including its i = 0 draw.
	for i := range buf {
		j := g.r.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = i
	}
}
