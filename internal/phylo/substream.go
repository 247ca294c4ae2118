package phylo

import "lattice/internal/sim"

// SubStream derives an independent RNG for one replicate of a labelled
// fan-out, purely from (seed, label, rep). Unlike sim.RNG.Stream it
// consumes no parent generator state, so replicate rep's stream is the
// same whether replicates run in submission order, in parallel shards,
// or alone after a crash — the property workflow fan-out stages rely
// on for bit-identical results at any parallelism.
func SubStream(seed int64, label string, rep int) *sim.RNG {
	return sim.NewRNG(sim.DeriveSeed(seed, label, rep))
}

// BootstrapStream is the sub-stream for bootstrap resampling replicate
// rep under a submission seed.
func BootstrapStream(seed int64, rep int) *sim.RNG {
	return SubStream(seed, "bootstrap", rep)
}

// BootstrapReplicate resamples pattern weights for replicate rep of a
// bootstrap fan-out seeded with seed. Calling it twice with the same
// arguments yields bit-identical weights.
//
//lint:allow deadexport -- README "Workflows" documents it as how replicate k gets the same stream at any parallelism; the simulation prices a replicate's search, only a real worker would run one
func (p *PatternData) BootstrapReplicate(seed int64, rep int) *PatternData {
	return p.Bootstrap(BootstrapStream(seed, rep).Float64)
}
