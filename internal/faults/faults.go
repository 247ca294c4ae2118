// Package faults is a deterministic, sim-clock-driven fault injector
// for the grid. A seeded Schedule — scripted events, probabilistic
// windows, and exponential up/down flapping — is applied through an
// Injector that wraps the seams the production stack already exposes:
// every lrm.LRM passes through a per-resource wrapper, which also
// reaches a BOINC server's hosts when the resource is a Churner, and MDS
// publications pass through a dropping/staling mds.Sink. Nothing in the
// production path imports this package or changes behaviour when no
// injector is wired; with one wired, the same seed always produces the
// same fault sequence (per-purpose RNG streams), so a hostile run is
// exactly as reproducible as a calm one.
//
// The fault vocabulary matches the failure modes the paper's
// resilience machinery exists for: whole-resource outages and flaps
// (stability ranking, MDS TTL expiry), gatekeeper submit failures
// (retry with backoff), MDS publication drops and staleness bursts
// (death detection), BOINC host-churn spikes (deadlines + reissue),
// and slow or lost results (requeue, quorum).
package faults

import (
	"fmt"

	"lattice/internal/sim"
)

// Kind names one fault mode the injector can produce.
type Kind string

const (
	// KindOutage takes a whole resource down: in-flight jobs fail,
	// submits are refused, and MDS publications stop until recovery.
	KindOutage Kind = "outage"
	// KindSubmitFail makes the resource's gatekeeper refuse each
	// submit with probability P during the window.
	KindSubmitFail Kind = "submit-fail"
	// KindMDSDrop silently discards the resource's MDS publications
	// for the window; the resource keeps running but its index entry
	// ages out, so the scheduler must treat it as dead.
	KindMDSDrop Kind = "mds-drop"
	// KindMDSStale freezes the resource's published Info at its last
	// value for the window — the index stays fresh but lies.
	KindMDSStale Kind = "mds-stale"
	// KindChurn detaches Hosts volunteer hosts from a BOINC project in
	// one burst, taking their queued work with them.
	KindChurn Kind = "churn"
	// KindSlowResult delays each completed result's delivery by Delay
	// with probability P during the window.
	KindSlowResult Kind = "slow-result"
	// KindLostResult converts each completed result into a failure
	// ("lost in transit") with probability P during the window.
	KindLostResult Kind = "lost-result"
	// KindCrash kills the coordinator process itself at a scheduled
	// time (Schedule.CrashAt). The injector stops the engine
	// mid-simulation; with durability enabled core.New resumes the run
	// from its log, without it everything since genesis is lost.
	KindCrash Kind = "crash"
	// KindDemandSpike is the workload-side fault: the grid is healthy
	// but the users stampede. Event.Resource names a demand hook
	// (AttachDemand) rather than a wrapped resource; at the window
	// start the hook is called with Factor (arrival rate multiplier),
	// at the end with 1. The spike journals whether or not a hook is
	// attached, so workload generators can attach after Apply.
	KindDemandSpike Kind = "demand-spike"
	// KindCapacityCollapse is a brownout rather than a blackout: for
	// the window the resource's published CPU capacity is scaled by
	// Factor (in (0,1)) and its gatekeeper refuses submissions beyond
	// the collapsed capacity. In-flight work keeps running.
	KindCapacityCollapse Kind = "capacity-collapse"
)

// Event is one scripted fault. At is when it begins; window faults
// last Duration, instantaneous ones (churn) ignore it.
type Event struct {
	At       sim.Time
	Kind     Kind
	Resource string
	// Duration is the window length for outage, submit-fail, mds-drop,
	// mds-stale, slow-result and lost-result events.
	Duration sim.Duration
	// P is the per-instance probability for submit-fail, slow-result
	// and lost-result windows.
	P float64
	// Delay is the added delivery latency for slow-result windows.
	Delay sim.Duration
	// Hosts is the burst size for churn events.
	Hosts int
	// Factor scales demand-spike arrival rates (> 1) and
	// capacity-collapse published capacity (in (0,1)).
	Factor float64
}

// Flap generates a probabilistic outage process on one resource:
// exponentially distributed up periods (mean MeanUp) alternating with
// exponentially distributed outages (mean MeanDown), driven by a
// per-flap RNG stream. New outages start only in [Start, Until);
// Until <= 0 means the resource flaps forever.
type Flap struct {
	Resource string
	MeanUp   sim.Duration
	MeanDown sim.Duration
	Start    sim.Time
	Until    sim.Time
}

// Schedule is the injector's input: a script plus flapping processes.
// Windows of the same kind on the same resource must not overlap, and
// each resource should have at most one outage source (scripted or
// flap) — overlapping recoveries would end each other early.
type Schedule struct {
	Events []Event
	Flaps  []Flap
	// CrashAt lists virtual times at which the coordinator process is
	// killed (see KindCrash).
	CrashAt []sim.Time
}

// Validate checks the schedule's internal consistency.
func (s *Schedule) Validate() error {
	for i, ev := range s.Events {
		if ev.Resource == "" {
			return fmt.Errorf("faults: event %d has no resource", i)
		}
		if ev.At < 0 {
			return fmt.Errorf("faults: event %d (%s on %s) starts before t=0", i, ev.Kind, ev.Resource)
		}
		switch ev.Kind {
		case KindOutage, KindMDSDrop, KindMDSStale:
			if ev.Duration <= 0 {
				return fmt.Errorf("faults: event %d (%s on %s) needs a positive Duration", i, ev.Kind, ev.Resource)
			}
		case KindSubmitFail, KindLostResult:
			if ev.Duration <= 0 {
				return fmt.Errorf("faults: event %d (%s on %s) needs a positive Duration", i, ev.Kind, ev.Resource)
			}
			if ev.P <= 0 || ev.P > 1 {
				return fmt.Errorf("faults: event %d (%s on %s) needs P in (0,1], got %g", i, ev.Kind, ev.Resource, ev.P)
			}
		case KindSlowResult:
			if ev.Duration <= 0 || ev.Delay <= 0 {
				return fmt.Errorf("faults: event %d (slow-result on %s) needs positive Duration and Delay", i, ev.Resource)
			}
			if ev.P <= 0 || ev.P > 1 {
				return fmt.Errorf("faults: event %d (slow-result on %s) needs P in (0,1], got %g", i, ev.Resource, ev.P)
			}
		case KindChurn:
			if ev.Hosts <= 0 {
				return fmt.Errorf("faults: event %d (churn on %s) needs a positive host count", i, ev.Resource)
			}
		case KindDemandSpike:
			if ev.Duration <= 0 {
				return fmt.Errorf("faults: event %d (demand-spike on %s) needs a positive Duration", i, ev.Resource)
			}
			if ev.Factor <= 1 {
				return fmt.Errorf("faults: event %d (demand-spike on %s) needs Factor > 1, got %g", i, ev.Resource, ev.Factor)
			}
		case KindCapacityCollapse:
			if ev.Duration <= 0 {
				return fmt.Errorf("faults: event %d (capacity-collapse on %s) needs a positive Duration", i, ev.Resource)
			}
			if ev.Factor <= 0 || ev.Factor >= 1 {
				return fmt.Errorf("faults: event %d (capacity-collapse on %s) needs Factor in (0,1), got %g", i, ev.Resource, ev.Factor)
			}
		default:
			return fmt.Errorf("faults: event %d has unknown kind %q", i, ev.Kind)
		}
	}
	for i, at := range s.CrashAt {
		if at < 0 {
			return fmt.Errorf("faults: crash %d scheduled before t=0", i)
		}
	}
	for i, f := range s.Flaps {
		if f.Resource == "" {
			return fmt.Errorf("faults: flap %d has no resource", i)
		}
		if f.MeanUp <= 0 || f.MeanDown <= 0 {
			return fmt.Errorf("faults: flap %d (%s) needs positive MeanUp and MeanDown", i, f.Resource)
		}
		if f.Until > 0 && f.Until <= f.Start {
			return fmt.Errorf("faults: flap %d (%s) ends before it starts", i, f.Resource)
		}
	}
	return nil
}
