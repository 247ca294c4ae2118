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
	"math"

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
// last Duration, instantaneous ones (churn) ignore it. Which of the
// other fields an event needs is its kind's row in kinds.
type Event struct {
	At       sim.Time
	Kind     Kind
	Resource string
	// Duration is the window length.
	Duration sim.Duration
	// P is the per-instance probability of a probabilistic window.
	P float64
	// Delay is the added delivery latency.
	Delay sim.Duration
	// Hosts is the burst size.
	Hosts int
	// Factor is the scale a window applies, inside its row's interval.
	Factor float64
}

// reach is what an event's Resource names.
type reach int

const (
	wrapped reach = iota // a resource passed to Wrap
	churner              // a wrapped resource that is a Churner
	demand               // a demand hook (AttachDemand)
)

// rule is one kind's row in the fault table.
type rule struct {
	window bool // lasts a positive Duration; otherwise instantaneous
	p      bool // needs P in (0,1]
	delay  bool // needs a positive Delay
	hosts  bool // needs a positive Hosts
	// factor, when set, is the open interval Factor must lie in.
	factor *[2]float64
	on     reach
	// note makes the start count as an injection; otherwise, like
	// every end, it only journals.
	note bool
	// opens and closes are the details the two edges journal. opens
	// formats the fields the row needs: P, then Delay, then Factor and
	// Duration.
	opens, closes string
}

// kinds declares the fault vocabulary once: Validate, Apply and the
// injector's window edges all read a kind's row here. Rows are looked
// up, never ranged over, so map order cannot leak into a run.
var kinds = map[Kind]rule{
	KindOutage:     {window: true, note: true, opens: "down", closes: "recovered"},
	KindSubmitFail: {window: true, p: true, opens: "window open p=%g", closes: "window closed"},
	KindMDSDrop:    {window: true, note: true, opens: "publications dropped", closes: "publications restored"},
	KindMDSStale:   {window: true, note: true, opens: "staleness burst begins", closes: "staleness burst ends"},
	// A churn burst journals how many hosts actually left.
	KindChurn:      {hosts: true, on: churner, note: true, opens: "%d hosts detached"},
	KindSlowResult: {window: true, p: true, delay: true, opens: "window open p=%g delay=%.0fs", closes: "window closed"},
	KindLostResult: {window: true, p: true, opens: "window open p=%g", closes: "window closed"},
	KindDemandSpike: {window: true, factor: &[2]float64{1, math.Inf(1)}, on: demand, note: true,
		opens: "arrival rate ×%g for %.0fs", closes: "demand restored"},
	KindCapacityCollapse: {window: true, factor: &[2]float64{0, 1}, note: true,
		opens: "capacity ×%g for %.0fs", closes: "capacity restored"},
}

// check names what ev lacks under the row, or returns "".
func (r *rule) check(ev *Event) string {
	switch {
	case r.window && !(ev.Duration > 0):
		return "a positive Duration"
	case r.p && !(ev.P > 0 && ev.P <= 1):
		return fmt.Sprintf("P in (0,1], got %g", ev.P)
	case r.delay && !(ev.Delay > 0):
		return "a positive Delay"
	case r.hosts && ev.Hosts <= 0:
		return "a positive host count"
	case r.factor != nil && !(ev.Factor > r.factor[0] && ev.Factor < r.factor[1]):
		return fmt.Sprintf("Factor in (%g,%g), got %g", r.factor[0], r.factor[1], ev.Factor)
	}
	return ""
}

// opened renders the detail of ev's start.
func (r *rule) opened(ev *Event) string {
	switch {
	case r.delay:
		return fmt.Sprintf(r.opens, ev.P, float64(ev.Delay))
	case r.p:
		return fmt.Sprintf(r.opens, ev.P)
	case r.factor != nil:
		return fmt.Sprintf(r.opens, ev.Factor, float64(ev.Duration))
	}
	return r.opens
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
// A window's end clears its kind's state on the resource, so windows of
// one kind on one resource must not meet, not even end to start; and a
// resource has at most one outage source (scripted or flap), since
// overlapping recoveries would end each other early. Validate enforces
// both.
type Schedule struct {
	Events []Event
	Flaps  []Flap
	// CrashAt lists virtual times at which the coordinator process is
	// killed (see KindCrash).
	CrashAt []sim.Time
}

// Validate checks each event against its kind's row and the schedule
// against the rules above.
func (s *Schedule) Validate() error {
	for i := range s.Events {
		ev := &s.Events[i]
		if ev.Resource == "" {
			return fmt.Errorf("faults: event %d has no resource", i)
		}
		if !(ev.At >= 0) {
			return fmt.Errorf("faults: event %d (%s on %s) starts before t=0", i, ev.Kind, ev.Resource)
		}
		r, ok := kinds[ev.Kind]
		if !ok {
			return fmt.Errorf("faults: event %d has unknown kind %q", i, ev.Kind)
		}
		if lack := r.check(ev); lack != "" {
			return fmt.Errorf("faults: event %d (%s on %s) needs %s", i, ev.Kind, ev.Resource, lack)
		}
		for j, prev := range s.Events[:i] {
			if r.window && prev.Kind == ev.Kind && prev.Resource == ev.Resource &&
				prev.At <= ev.At.Add(ev.Duration) && ev.At <= prev.At.Add(prev.Duration) {
				return fmt.Errorf("faults: events %d and %d (%s on %s) overlap", j, i, ev.Kind, ev.Resource)
			}
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
		for j, prev := range s.Flaps[:i] {
			if prev.Resource == f.Resource {
				return fmt.Errorf("faults: flaps %d and %d both take %s down", j, i, f.Resource)
			}
		}
		for j, ev := range s.Events {
			if ev.Kind == KindOutage && ev.Resource == f.Resource {
				return fmt.Errorf("faults: event %d scripts an outage on %s, which flap %d takes down", j, f.Resource, i)
			}
		}
	}
	return nil
}
