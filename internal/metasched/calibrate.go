package metasched

import (
	"fmt"

	"lattice/internal/lrm"
	"lattice/internal/sim"
)

// Calibrate measures a resource's speed the way the paper does: "run a
// short GARLI job on each unique individual machine that is part of a
// resource, and average the runtimes we collect. We compare this
// averaged runtime to the runtime from a reference computer, which is
// arbitrarily assigned a speed of 1.0."
//
// It submits count benchmark jobs of benchRefSeconds reference-seconds
// each, runs the simulation until they finish (or deadline), averages
// the measured runtimes and returns the implied speed. The engine is
// advanced, so calibrate on an idle grid (as the real operators did)
// or the queueing delay dilutes the measurement.
func Calibrate(eng *sim.Engine, target lrm.LRM, benchRefSeconds float64, count int, deadline sim.Duration) (float64, error) {
	if count < 1 {
		return 0, fmt.Errorf("metasched: calibration needs at least 1 benchmark job")
	}
	if benchRefSeconds <= 0 {
		return 0, fmt.Errorf("metasched: benchmark size must be positive")
	}
	type sample struct {
		start sim.Time
		dur   sim.Duration
		done  bool
	}
	samples := make([]sample, count)
	finished := 0
	for i := 0; i < count; i++ {
		i := i
		samples[i].start = eng.Now()
		j := &lrm.Job{
			ID:       fmt.Sprintf("speed-bench-%s-%d-%d", target.Name(), int(eng.Now()), i),
			Work:     benchRefSeconds * lrm.ReferenceCellsPerSecond,
			MemoryMB: 64,
		}
		j.OnComplete = func(at sim.Time) {
			samples[i].dur = at.Sub(samples[i].start)
			samples[i].done = true
			finished++
		}
		if err := target.Submit(j); err != nil {
			return 0, fmt.Errorf("metasched: calibration submit to %s: %w", target.Name(), err)
		}
	}
	end := eng.Now().Add(deadline)
	for finished < count && eng.Now() < end && eng.Pending() > 0 {
		eng.RunUntil(end)
	}
	var sum float64
	var n int
	for _, s := range samples {
		if s.done && s.dur > 0 {
			sum += s.dur.Seconds()
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("metasched: no calibration jobs finished on %s within %v", target.Name(), deadline)
	}
	mean := sum / float64(n)
	return benchRefSeconds / mean, nil
}
