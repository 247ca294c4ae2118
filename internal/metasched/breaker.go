package metasched

import (
	"fmt"

	"lattice/internal/obs"
)

// Per-resource circuit breakers, layered on the learned stability
// EWMAs: the EWMA softly deprioritizes a degrading resource through
// the ranking, while the breaker hard-stops a flapping gatekeeper from
// eating retry budget. BreakerThreshold consecutive failures — submit
// refusals, resource-level job failures (including BOINC deadline
// misses surfacing as failures), death requeues — trip the circuit
// open; the resource receives no work for the cooldown, then exactly
// one half-open probe whose outcome closes or re-opens it. Everything
// keys off the virtual clock and the deterministic failure sequence,
// so breakers add no RNG draws and same-seed runs trip identically.

// breakerAllows reports whether the resource's circuit admits a new
// dispatch: closed → yes; open and cooling → no; open past the
// cooldown (half-open) → only while no probe is in flight.
func (s *Scheduler) breakerAllows(r *resource) bool {
	if s.cfg.BreakerThreshold <= 0 || !r.breakerOpen {
		return true
	}
	if s.eng.Now() < r.breakerUntil {
		return false
	}
	return !r.breakerProbe
}

// noteBreakerDispatch marks the half-open probe when a dispatch lands
// on an open circuit past its cooldown.
func (s *Scheduler) noteBreakerDispatch(r *resource) {
	if s.cfg.BreakerThreshold <= 0 || !r.breakerOpen || r.breakerProbe {
		return
	}
	r.breakerProbe = true
	s.obs.Record("", "", obs.StageBreaker, r.name, "half-open probe dispatched")
}

// observeBreaker feeds one outcome on a resource into its circuit.
func (s *Scheduler) observeBreaker(r *resource, ok bool) {
	if s.cfg.BreakerThreshold <= 0 {
		return
	}
	now := s.eng.Now()
	if ok {
		if r.breakerOpen {
			r.breakerOpen = false
			r.breakerProbe = false
			s.obs.Record("", "", obs.StageBreaker, r.name, "closed after successful probe")
		}
		r.breakerFails = 0
		return
	}
	if r.breakerOpen {
		// A failure while open — the probe, or a straggler dispatched
		// before the trip — re-arms the cooldown.
		wasProbe := r.breakerProbe
		r.breakerProbe = false
		r.breakerUntil = now.Add(breakerCooldown)
		if wasProbe {
			s.obs.Record("", "", obs.StageBreaker, r.name, "probe failed; reopened")
		}
		return
	}
	r.breakerFails++
	if r.breakerFails < s.cfg.BreakerThreshold {
		return
	}
	r.breakerOpen = true
	r.breakerProbe = false
	r.breakerFails = 0
	r.breakerUntil = now.Add(breakerCooldown)
	s.stats.BreakerTrips++
	s.obs.Counter("lattice_sched_breaker_trips_total",
		"Per-resource circuit-breaker trips on consecutive failures").Inc()
	s.obs.Record("", "", obs.StageBreaker, r.name,
		fmt.Sprintf("open after %d consecutive failures; probe after %.0fs",
			s.cfg.BreakerThreshold, float64(breakerCooldown)))
}
