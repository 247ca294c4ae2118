package faults

import (
	"fmt"

	"lattice/internal/grid/mds"
	"lattice/internal/lrm"
	"lattice/internal/obs"
	"lattice/internal/sim"
)

// Churner is the narrow hook into a BOINC project for host-churn
// bursts; boinc.Server satisfies it. Churn detaches up to n hosts and
// returns how many actually left.
type Churner interface {
	Churn(n int) int
}

// Injector applies a Schedule to the wrapped seams of one grid. It is
// single-goroutine like everything else on the engine: all state
// changes happen inside engine callbacks or during setup.
type Injector struct {
	eng      *sim.Engine
	rng      *sim.RNG
	obs      *obs.Obs
	targets  map[string]*target
	churners map[string]Churner
	demands  map[string]func(factor float64)
	stats    map[Kind]int
	// crashStops controls whether an armed crash actually stops the
	// engine. Recovery re-execution disables it: the crash must still
	// journal and count (it did originally), but the rebuild needs to
	// run straight through it.
	crashStops bool
	crashed    bool
}

// NewInjector creates an injector on the engine's clock. rng seeds the
// probabilistic fault streams; every wrapped resource derives its own
// child streams from it, so wrapping order (which core fixes by config
// order) pins the whole fault sequence.
func NewInjector(eng *sim.Engine, rng *sim.RNG) *Injector {
	return &Injector{
		eng:        eng,
		rng:        rng,
		targets:    make(map[string]*target),
		churners:   make(map[string]Churner),
		demands:    make(map[string]func(factor float64)),
		stats:      make(map[Kind]int),
		crashStops: true,
	}
}

// SetCrashStops toggles whether armed crashes halt the engine (they
// do by default). The journal event and injection count fire either
// way, so a recovery re-execution reproduces them bit-identically.
func (in *Injector) SetCrashStops(on bool) { in.crashStops = on }

// Crashed reports whether a scheduled crash has killed the
// coordinator since the last recovery.
func (in *Injector) Crashed() bool { return in.crashed }

// SetObs wires the injector to an observability hub: every injected
// fault becomes a per-kind counter increment and a journal "fault"
// event (recoveries journal too, without counting).
func (in *Injector) SetObs(o *obs.Obs) { in.obs = o }

// Wrap interposes the injector between the scheduler and one resource.
// The wrapper is a pass-through lrm.LRM until the schedule says
// otherwise: submits can be refused, in-flight jobs killed by outages,
// and completed results delayed or lost.
func (in *Injector) Wrap(inner lrm.LRM) lrm.LRM {
	name := inner.Name()
	t := &target{
		in:        in,
		inner:     inner,
		name:      name,
		submitRNG: in.rng.Stream("submit-" + name),
		resultRNG: in.rng.Stream("result-" + name),
	}
	in.targets[name] = t
	return t
}

// Sink interposes the injector on the MDS publication path: providers
// publish into the returned sink, which forwards to dst except while
// the resource is down or in an mds-drop window (publications vanish,
// the entry ages out) or an mds-stale burst (the last-seen Info is
// republished unchanged).
func (in *Injector) Sink(dst mds.Sink) mds.Sink {
	return &sink{in: in, dst: dst}
}

// AttachChurner registers the churn hook for a BOINC resource.
func (in *Injector) AttachChurner(name string, c Churner) {
	in.churners[name] = c
}

// AttachDemand registers the hook a demand-spike event drives: fn is
// called with the event's Factor at the window start and with 1 at the
// end. Unlike churners, demand hooks live on the workload side (the
// arrival process), so they may attach after Apply; a spike with no
// hook still journals.
func (in *Injector) AttachDemand(name string, fn func(factor float64)) {
	in.demands[name] = fn
}

// down reports whether the named resource is currently in an outage.
func (in *Injector) down(name string) bool {
	t, ok := in.targets[name]
	return ok && t.down
}

// Injected returns how many faults of each kind have fired so far.
func (in *Injector) Injected() map[Kind]int {
	out := make(map[Kind]int, len(in.stats))
	for k, v := range in.stats {
		out[k] = v
	}
	return out
}

// Apply validates the schedule against the wrapped resources and arms
// every event and flap on the engine. Call it once, after all
// resources are wrapped, before the simulation runs.
func (in *Injector) Apply(sch Schedule) error {
	if err := sch.Validate(); err != nil {
		return err
	}
	for i, ev := range sch.Events {
		if ev.Kind == KindChurn {
			if _, ok := in.churners[ev.Resource]; !ok {
				return fmt.Errorf("faults: event %d targets %s, which has no churn hook", i, ev.Resource)
			}
			continue
		}
		if ev.Kind == KindDemandSpike {
			// Demand hooks attach on the workload side, possibly after
			// Apply; nothing to validate here.
			continue
		}
		if _, ok := in.targets[ev.Resource]; !ok {
			return fmt.Errorf("faults: event %d targets unwrapped resource %s", i, ev.Resource)
		}
	}
	for i, f := range sch.Flaps {
		if _, ok := in.targets[f.Resource]; !ok {
			return fmt.Errorf("faults: flap %d targets unwrapped resource %s", i, f.Resource)
		}
	}
	for i := range sch.Events {
		in.arm(sch.Events[i])
	}
	for i := range sch.Flaps {
		in.armFlap(sch.Flaps[i], i)
	}
	for i := range sch.CrashAt {
		in.armCrash(sch.CrashAt[i])
	}
	return nil
}

// armCrash schedules a coordinator kill: the crash journals like any
// injected fault, then halts the engine mid-run — the simulation
// equivalent of the process dying with events still queued.
func (in *Injector) armCrash(at sim.Time) {
	in.eng.ScheduleAt(at, func() {
		in.note(KindCrash, "coordinator", "process killed")
		if in.crashStops {
			in.crashed = true
			in.eng.Stop()
		}
	})
}

// arm schedules one scripted event's begin (and end, for windows).
func (in *Injector) arm(ev Event) {
	switch ev.Kind {
	case KindChurn:
		in.eng.ScheduleAt(ev.At, func() {
			n := in.churners[ev.Resource].Churn(ev.Hosts)
			in.note(KindChurn, ev.Resource, fmt.Sprintf("%d hosts detached", n))
		})
		return
	case KindOutage:
		t := in.targets[ev.Resource]
		in.eng.ScheduleAt(ev.At, t.beginOutage)
		in.eng.ScheduleAt(ev.At.Add(ev.Duration), t.endOutage)
		return
	case KindDemandSpike:
		in.eng.ScheduleAt(ev.At, func() {
			in.note(KindDemandSpike, ev.Resource,
				fmt.Sprintf("arrival rate ×%g for %.0fs", ev.Factor, float64(ev.Duration)))
			if fn := in.demands[ev.Resource]; fn != nil {
				fn(ev.Factor)
			}
		})
		in.eng.ScheduleAt(ev.At.Add(ev.Duration), func() {
			in.mark(KindDemandSpike, ev.Resource, "demand restored")
			if fn := in.demands[ev.Resource]; fn != nil {
				fn(1)
			}
		})
		return
	}
	t := in.targets[ev.Resource]
	end := ev.At.Add(ev.Duration)
	switch ev.Kind {
	case KindSubmitFail:
		in.eng.ScheduleAt(ev.At, func() {
			t.submitFailP = ev.P
			in.mark(KindSubmitFail, t.name, fmt.Sprintf("window open p=%g", ev.P))
		})
		in.eng.ScheduleAt(end, func() {
			t.submitFailP = 0
			in.mark(KindSubmitFail, t.name, "window closed")
		})
	case KindMDSDrop:
		in.eng.ScheduleAt(ev.At, func() {
			t.drop = true
			in.note(KindMDSDrop, t.name, "publications dropped")
		})
		in.eng.ScheduleAt(end, func() {
			t.drop = false
			in.mark(KindMDSDrop, t.name, "publications restored")
		})
	case KindMDSStale:
		in.eng.ScheduleAt(ev.At, func() {
			t.stale = true
			in.note(KindMDSStale, t.name, "staleness burst begins")
		})
		in.eng.ScheduleAt(end, func() {
			t.stale = false
			in.mark(KindMDSStale, t.name, "staleness burst ends")
		})
	case KindSlowResult:
		in.eng.ScheduleAt(ev.At, func() {
			t.slowP = ev.P
			t.slowBy = ev.Delay
			in.mark(KindSlowResult, t.name, fmt.Sprintf("window open p=%g delay=%.0fs", ev.P, float64(ev.Delay)))
		})
		in.eng.ScheduleAt(end, func() {
			t.slowP = 0
			in.mark(KindSlowResult, t.name, "window closed")
		})
	case KindLostResult:
		in.eng.ScheduleAt(ev.At, func() {
			t.lostP = ev.P
			in.mark(KindLostResult, t.name, fmt.Sprintf("window open p=%g", ev.P))
		})
		in.eng.ScheduleAt(end, func() {
			t.lostP = 0
			in.mark(KindLostResult, t.name, "window closed")
		})
	case KindCapacityCollapse:
		in.eng.ScheduleAt(ev.At, func() {
			t.capFactor = ev.Factor
			in.note(KindCapacityCollapse, t.name,
				fmt.Sprintf("capacity ×%g for %.0fs", ev.Factor, float64(ev.Duration)))
		})
		in.eng.ScheduleAt(end, func() {
			t.capFactor = 0
			in.mark(KindCapacityCollapse, t.name, "capacity restored")
		})
	}
}

// armFlap starts one flapping process on its own RNG stream.
func (in *Injector) armFlap(f Flap, i int) {
	t := in.targets[f.Resource]
	rng := in.rng.Stream(fmt.Sprintf("flap-%s-%d", f.Resource, i))
	var cycle func()
	cycle = func() {
		if f.Until > 0 && in.eng.Now() >= f.Until {
			return // the process dies quietly once past its horizon
		}
		t.beginOutage()
		in.eng.Schedule(rng.ExpDuration(f.MeanDown), func() {
			t.endOutage()
			in.eng.Schedule(rng.ExpDuration(f.MeanUp), cycle)
		})
	}
	in.eng.ScheduleAt(f.Start.Add(rng.ExpDuration(f.MeanUp)), cycle)
}

// note counts one injected fault and journals it.
func (in *Injector) note(k Kind, resource, detail string) {
	in.stats[k]++
	in.obs.Counter("lattice_faults_injected_total",
		"Faults injected by the deterministic fault injector",
		obs.L("kind", string(k)), obs.L("resource", resource)).Inc()
	in.obs.Record("", "", obs.StageFault, resource, string(k)+": "+detail)
}

// mark journals a fault-layer transition without counting it as an
// injection (window edges, recoveries).
func (in *Injector) mark(k Kind, resource, detail string) {
	in.obs.Record("", "", obs.StageFault, resource, string(k)+": "+detail)
}

// target wraps one lrm.LRM with the injector's failure modes. With no
// active window it is a pure pass-through (plus in-flight tracking).
type target struct {
	in    *Injector
	inner lrm.LRM
	name  string

	down        bool
	capFactor   float64 // capacity-collapse scale, 0 when inactive
	submitFailP float64
	lostP       float64
	slowP       float64
	slowBy      sim.Duration
	drop        bool
	stale       bool
	lastInfo    lrm.Info
	haveLast    bool

	submitRNG *sim.RNG
	resultRNG *sim.RNG

	// inflight tracks jobs submitted through the wrapper and not yet
	// terminal, in submission order, so an outage kills them
	// deterministically.
	inflight []*lrm.Job
}

func (t *target) Name() string     { return t.inner.Name() }
func (t *target) Info() lrm.Info   { return t.inner.Info() }
func (t *target) Stats() lrm.Stats { return t.inner.Stats() }

func (t *target) Cancel(jobID string) bool {
	t.forget(jobID)
	return t.inner.Cancel(jobID)
}

// Submit implements lrm.LRM. The adapter builds a fresh lrm.Job per
// dispatch, so rewriting its callbacks here never leaks into a retry.
func (t *target) Submit(j *lrm.Job) error {
	if t.down {
		t.in.note(KindSubmitFail, t.name, "submit refused: resource down")
		return fmt.Errorf("faults: %s is down", t.name)
	}
	if t.submitFailP > 0 && t.submitRNG.Bool(t.submitFailP) {
		t.in.note(KindSubmitFail, t.name, "submit refused by gatekeeper")
		return fmt.Errorf("faults: %s gatekeeper refused the submission", t.name)
	}
	if t.capFactor > 0 {
		capacity := int(t.capFactor * float64(t.inner.Info().TotalCPUs))
		if capacity < 1 {
			capacity = 1
		}
		if len(t.inflight) >= capacity {
			t.in.note(KindCapacityCollapse, t.name, "submit refused: capacity collapsed")
			return fmt.Errorf("faults: %s capacity collapsed", t.name)
		}
	}
	origComplete := j.OnComplete
	origFail := j.OnFail
	j.OnComplete = func(at sim.Time) {
		t.forget(j.ID)
		if t.lostP > 0 && t.resultRNG.Bool(t.lostP) {
			t.in.note(KindLostResult, t.name, j.ID)
			if origFail != nil {
				origFail(at, "faults: result lost in transit")
			}
			return
		}
		if t.slowP > 0 && t.resultRNG.Bool(t.slowP) {
			t.in.note(KindSlowResult, t.name, j.ID)
			t.in.eng.Schedule(t.slowBy, func() {
				if origComplete != nil {
					origComplete(t.in.eng.Now())
				}
			})
			return
		}
		if origComplete != nil {
			origComplete(at)
		}
	}
	j.OnFail = func(at sim.Time, reason string) {
		t.forget(j.ID)
		if origFail != nil {
			origFail(at, reason)
		}
	}
	if err := t.inner.Submit(j); err != nil {
		return err
	}
	t.inflight = append(t.inflight, j)
	return nil
}

// beginOutage takes the resource down: every tracked in-flight job is
// cancelled locally and failed back to its submitter.
func (t *target) beginOutage() {
	if t.down {
		return
	}
	t.down = true
	t.in.note(KindOutage, t.name, "down")
	jobs := t.inflight
	t.inflight = nil
	now := t.in.eng.Now()
	for _, j := range jobs {
		t.inner.Cancel(j.ID)
		if j.OnFail != nil {
			j.OnFail(now, "faults: resource outage")
		}
	}
}

func (t *target) endOutage() {
	if !t.down {
		return
	}
	t.down = false
	t.in.mark(KindOutage, t.name, "recovered")
}

func (t *target) forget(jobID string) {
	for i, j := range t.inflight {
		if j.ID == jobID {
			t.inflight = append(t.inflight[:i], t.inflight[i+1:]...)
			return
		}
	}
}

// sink filters MDS publications through the injector's window state.
type sink struct {
	in  *Injector
	dst mds.Sink
}

func (k *sink) Publish(info lrm.Info) {
	t, ok := k.in.targets[info.Name]
	if !ok {
		k.dst.Publish(info)
		return
	}
	if t.down || t.drop {
		return // a dead container publishes nothing; the entry ages out
	}
	if t.stale && t.haveLast {
		k.dst.Publish(t.lastInfo)
		return
	}
	t.lastInfo = info
	t.haveLast = true
	if t.capFactor > 0 {
		// Brownout: the resource advertises its collapsed capacity, so
		// the scheduler's backlog cap and ranking throttle it.
		info.TotalCPUs = int(t.capFactor * float64(info.TotalCPUs))
		if info.TotalCPUs < 1 {
			info.TotalCPUs = 1
		}
		if info.FreeCPUs > info.TotalCPUs {
			info.FreeCPUs = info.TotalCPUs
		}
	}
	k.dst.Publish(info)
}
