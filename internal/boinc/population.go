package boinc

import (
	"lattice/internal/lrm"
	"lattice/internal/sim"
)

// PopulationConfig sizes a synthetic volunteer host population; its
// shape is fixed below.
type PopulationConfig struct {
	Hosts int
	// PDetach is the per-off-period detach probability.
	PDetach float64
}

// The population's shape mirrors well-known desktop-grid measurements:
// heavy-tailed speeds, mostly-Windows platforms, duty cycles well under
// 100%.
const (
	// speedMedian and speedSigma parameterize the log-normal host
	// speed distribution (relative to the reference computer).
	speedMedian = 0.8
	speedSigma  = 0.5
	// meanOn and meanOff set average availability periods.
	meanOn  = 10 * sim.Hour
	meanOff = 14 * sim.Hour
	// bufferSeconds is the client work-buffer target.
	bufferSeconds = 12 * 3600.0
)

// DefaultPopulation returns a realistic volunteer population: hosts
// leave in a slow trickle.
func DefaultPopulation(hosts int) PopulationConfig {
	return PopulationConfig{Hosts: hosts, PDetach: 0.002}
}

// GeneratePopulation attaches cfg.Hosts synthetic volunteers to the
// server, deterministically from rng.
func GeneratePopulation(s *Server, rng *sim.RNG, cfg PopulationConfig) {
	for i := 0; i < cfg.Hosts; i++ {
		h := &Host{
			ID:            i,
			Speed:         rng.LogNormal(0, speedSigma) * speedMedian,
			MemoryMB:      pickMemory(rng),
			Platform:      pickPlatform(rng),
			MeanOn:        scaleDur(rng, meanOn),
			MeanOff:       scaleDur(rng, meanOff),
			BufferSeconds: bufferSeconds * rng.Uniform(0.5, 2),
			ReportLatency: sim.Duration(rng.Uniform(60, 4*3600)),
			PDetach:       cfg.PDetach,
		}
		s.AttachHost(h)
	}
}

// pickPlatform follows the classic volunteer-computing platform mix.
func pickPlatform(rng *sim.RNG) lrm.Platform {
	switch rng.Choice([]float64{0.82, 0.10, 0.08}) {
	case 0:
		return lrm.WindowsX86
	case 1:
		return lrm.LinuxX86
	default:
		return lrm.DarwinX86
	}
}

// pickMemory draws host memory from typical 2011-era desktop classes.
func pickMemory(rng *sim.RNG) int {
	classes := []int{1024, 2048, 4096, 8192}
	return classes[rng.Choice([]float64{0.2, 0.4, 0.3, 0.1})]
}

// scaleDur jitters a mean duration ±50% per host.
func scaleDur(rng *sim.RNG, d sim.Duration) sim.Duration {
	return sim.Duration(float64(d) * rng.Uniform(0.5, 1.5))
}
