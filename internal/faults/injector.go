package faults

import (
	"fmt"
	"maps"
	"slices"

	"lattice/internal/grid/mds"
	"lattice/internal/lrm"
	"lattice/internal/obs"
	"lattice/internal/sim"
)

// Churner is a wrapped resource that host-churn bursts can reach;
// boinc.Server satisfies it. Churn detaches up to n hosts and returns
// how many actually left.
type Churner interface {
	Churn(n int) int
}

// Injector applies a Schedule to the wrapped seams of one grid. It is
// single-goroutine like everything else on the engine: all state
// changes happen inside engine callbacks or during setup.
type Injector struct {
	eng     *sim.Engine
	rng     *sim.RNG
	obs     *obs.Obs
	targets map[string]*target
	demands map[string]func(factor float64)
	stats   map[Kind]int
	// injected holds the counter series note has resolved.
	injected map[injection]*obs.Counter
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
// order) pins the whole fault sequence. o, which may be nil, receives
// every injected fault as a per-kind counter increment and a journal
// "fault" event (recoveries journal too, without counting).
func NewInjector(eng *sim.Engine, rng *sim.RNG, o *obs.Obs) *Injector {
	return &Injector{
		eng:        eng,
		rng:        rng,
		obs:        o,
		targets:    make(map[string]*target),
		demands:    make(map[string]func(factor float64)),
		stats:      make(map[Kind]int),
		injected:   make(map[injection]*obs.Counter),
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

// Wrap interposes the injector between the scheduler and one resource.
// The wrapper is a pass-through lrm.LRM until the schedule says
// otherwise: submits can be refused, in-flight jobs killed by outages,
// and completed results delayed or lost. A resource that is a Churner
// can also be the target of churn events.
func (in *Injector) Wrap(inner lrm.LRM) lrm.LRM {
	name := inner.Name()
	churn, _ := inner.(Churner)
	t := &target{
		in:           in,
		inner:        inner,
		name:         name,
		churn:        churn,
		open:         make(map[Kind]*Event),
		errDown:      fmt.Errorf("faults: %s is down", name),
		errRefused:   fmt.Errorf("faults: %s gatekeeper refused the submission", name),
		errCollapsed: fmt.Errorf("faults: %s capacity collapsed", name),
		submitRNG:    in.rng.Stream("submit-" + name),
		resultRNG:    in.rng.Stream("result-" + name),
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

// AttachDemand registers the hook a demand-spike event drives: fn is
// called with the event's Factor at the window start and with 1 at the
// end. Unlike churners, demand hooks live on the workload side (the
// arrival process), so they may attach after Apply; a spike with no
// hook still journals.
func (in *Injector) AttachDemand(name string, fn func(factor float64)) {
	in.demands[name] = fn
}

// Injected returns how many faults of each kind have fired so far.
func (in *Injector) Injected() map[Kind]int { return maps.Clone(in.stats) }

// Apply validates the schedule against the wrapped resources and arms
// every event and flap on the engine. Call it once, after all
// resources are wrapped, before the simulation runs.
func (in *Injector) Apply(sch Schedule) error {
	if err := sch.Validate(); err != nil {
		return err
	}
	// Demand hooks attach on the workload side, possibly after Apply.
	for i, ev := range sch.Events {
		t, on := in.targets[ev.Resource], kinds[ev.Kind].on
		switch {
		case on == wrapped && t == nil:
			return fmt.Errorf("faults: event %d targets unwrapped resource %s", i, ev.Resource)
		case on == churner && (t == nil || t.churn == nil):
			return fmt.Errorf("faults: event %d targets %s, which has no churn hook", i, ev.Resource)
		}
	}
	for i, f := range sch.Flaps {
		if _, ok := in.targets[f.Resource]; !ok {
			return fmt.Errorf("faults: flap %d targets unwrapped resource %s", i, f.Resource)
		}
	}
	for _, ev := range sch.Events {
		in.arm(ev)
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

// arm schedules one scripted event's start and, for a window, its end.
func (in *Injector) arm(ev Event) {
	t := in.targets[ev.Resource]
	end := ev.At.Add(ev.Duration)
	switch ev.Kind {
	case KindChurn:
		in.eng.ScheduleAt(ev.At, func() {
			n := t.churn.Churn(ev.Hosts)
			in.note(KindChurn, ev.Resource, fmt.Sprintf(kinds[KindChurn].opens, n))
		})
	case KindOutage:
		in.eng.ScheduleAt(ev.At, t.beginOutage)
		in.eng.ScheduleAt(end, t.endOutage)
	default:
		in.eng.ScheduleAt(ev.At, func() { in.edge(t, &ev, true) })
		in.eng.ScheduleAt(end, func() { in.edge(t, &ev, false) })
	}
}

// edge opens or closes ev's window. While it lasts, a wrapped resource
// holds ev as its open window of that kind; each edge journals, a
// counted start as an injection; a demand hook receives the Factor at
// the start and 1 at the end.
func (in *Injector) edge(t *target, ev *Event, open bool) {
	r := kinds[ev.Kind]
	cur, factor, detail, journal := (*Event)(nil), 1.0, r.closes, in.mark
	if open {
		cur, factor, detail = ev, ev.Factor, r.opened(ev)
		if r.note {
			journal = in.note
		}
	}
	if r.on == wrapped {
		t.open[ev.Kind] = cur
	}
	journal(ev.Kind, ev.Resource, detail)
	if fn := in.demands[ev.Resource]; r.on == demand && fn != nil {
		fn(factor)
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

// note counts one injected fault and journals it, its detail led by
// the kind.
func (in *Injector) note(k Kind, resource, detail string) {
	in.count(k, resource, string(k)+": "+detail)
}

// The journal details of the wrapper's three submit refusals, spelled
// out as note would join them, so that a refusal joins nothing.
const (
	refusedDown       = string(KindSubmitFail) + ": submit refused: resource down"
	refusedGatekeeper = string(KindSubmitFail) + ": submit refused by gatekeeper"
	refusedCollapsed  = string(KindCapacityCollapse) + ": submit refused: capacity collapsed"
)

// count counts one injected fault of kind k and journals detail, the
// whole of its text. Each kind and resource's counter series is
// resolved at its first injection and kept.
func (in *Injector) count(k Kind, resource, detail string) {
	in.stats[k]++
	key := injection{k, resource}
	c, ok := in.injected[key]
	if !ok {
		c = in.obs.Counter("lattice_faults_injected_total",
			"Faults injected by the deterministic fault injector",
			obs.L("kind", string(k)), obs.L("resource", resource))
		in.injected[key] = c
	}
	c.Inc()
	in.obs.Record("", "", obs.StageFault, resource, detail)
}

// injection keys a lattice_faults_injected_total series.
type injection struct {
	kind     Kind
	resource string
}

// mark journals a fault-layer transition without counting it as an
// injection (window edges, recoveries).
func (in *Injector) mark(k Kind, resource, detail string) {
	in.obs.Record("", "", obs.StageFault, resource, string(k)+": "+detail)
}

// target wraps one lrm.LRM with the injector's failure modes. With no
// open window it is a pure pass-through (plus in-flight tracking).
type target struct {
	in    *Injector
	inner lrm.LRM
	name  string
	// churn is inner as a Churner, nil when it is none.
	churn Churner

	down bool
	// open holds, per kind, the event whose window is open on the
	// resource; nil when none is.
	open     map[Kind]*Event
	lastInfo lrm.Info
	haveLast bool

	// errDown, errRefused and errCollapsed are the target's three
	// refusals, built once.
	errDown, errRefused, errCollapsed error

	submitRNG *sim.RNG
	resultRNG *sim.RNG

	// inflight holds the jobs submitted through the wrapper and not yet
	// terminal, in submission order, so an outage kills them
	// deterministically.
	inflight []flight
	// held holds the completions the slow-result window is holding
	// back, so that a Cancel of their job can drop them.
	held []*slowResult
}

// flight is one job in flight through a target and the owner it was
// submitted with; the target stands as the job's Owner meanwhile.
type flight struct {
	job   *lrm.Job
	owner lrm.Owner
}

func (t *target) Name() string     { return t.inner.Name() }
func (t *target) Info() lrm.Info   { return t.inner.Info() }
func (t *target) Stats() lrm.Stats { return t.inner.Stats() }

// Cancel implements lrm.LRM. A completion the slow-result window holds
// back is dropped: its job is still live to its owner, which hears
// nothing of it once Cancel returns.
func (t *target) Cancel(jobID string) bool {
	if i := slices.IndexFunc(t.inflight, func(f flight) bool { return f.job.ID == jobID }); i >= 0 {
		t.inflight = slices.Delete(t.inflight, i, i+1)
	}
	i := slices.IndexFunc(t.held, func(d *slowResult) bool { return d.job.ID == jobID })
	if i >= 0 {
		t.held = slices.Delete(t.held, i, i+1)
	}
	return t.inner.Cancel(jobID) || i >= 0
}

// Submit implements lrm.LRM. Each dispatch hands over an lrm.Job no
// earlier dispatch used — the first one inline in its grid job, every
// retry a fresh record — so rewriting its Owner here never leaks into a
// retry.
func (t *target) Submit(j *lrm.Job) error {
	if t.down {
		t.in.count(KindSubmitFail, t.name, refusedDown)
		return t.errDown
	}
	if ev := t.open[KindSubmitFail]; ev != nil && t.submitRNG.Bool(ev.P) {
		t.in.count(KindSubmitFail, t.name, refusedGatekeeper)
		return t.errRefused
	}
	if ev := t.open[KindCapacityCollapse]; ev != nil && len(t.inflight) >= collapse(ev, t.inner.Info().TotalCPUs) {
		t.in.count(KindCapacityCollapse, t.name, refusedCollapsed)
		return t.errCollapsed
	}
	owner := j.Owner
	j.Owner = (*relay)(t)
	if err := t.inner.Submit(j); err != nil {
		return err
	}
	t.inflight = append(t.inflight, flight{j, owner})
	return nil
}

// collapse is the CPU count a capacity-collapse window leaves of cpus.
func collapse(ev *Event, cpus int) int {
	return max(1, int(ev.Factor*float64(cpus)))
}

// relay is a target as the Owner of every job it forwards. A report
// names its job (the lrm.Owner contract), so it finds the job's flight
// by pointer, ends it and goes on to the owner, applying the lost- and
// slow-result windows to a completion. A report of a job the target no
// longer holds — cancelled, or failed by an outage — is one no resource
// sends, and is dropped.
type relay target

// Complete draws for a lost result before a slow one.
func (r *relay) Complete(j *lrm.Job, at sim.Time) {
	t := (*target)(r)
	owner, ok := t.land(j)
	if !ok {
		return
	}
	if ev := t.open[KindLostResult]; ev != nil && t.resultRNG.Bool(ev.P) {
		t.in.note(KindLostResult, t.name, j.ID)
		if owner != nil {
			owner.Fail(j, at, "faults: result lost in transit")
		}
		return
	}
	if ev := t.open[KindSlowResult]; ev != nil && t.resultRNG.Bool(ev.P) {
		t.in.note(KindSlowResult, t.name, j.ID)
		d := &slowResult{t: t, flight: flight{j, owner}}
		t.held = append(t.held, d)
		t.in.eng.After(ev.Delay, d)
		return
	}
	if owner != nil {
		owner.Complete(j, at)
	}
}

func (r *relay) Fail(j *lrm.Job, at sim.Time, reason string) {
	if owner, ok := (*target)(r).land(j); ok && owner != nil {
		owner.Fail(j, at, reason)
	}
}

// slowResult is a completion the slow-result window holds back: the
// event of it reaching the job's owner, unless a Cancel of its job took
// it out of the target's held list meanwhile. The job has left the
// target's flights, so an outage does not fail it.
type slowResult struct {
	t *target
	flight
}

func (d *slowResult) Fire() {
	t := d.t
	i := slices.Index(t.held, d)
	if i < 0 {
		return // cancelled
	}
	t.held = slices.Delete(t.held, i, i+1)
	if d.owner != nil {
		d.owner.Complete(d.job, t.in.eng.Now())
	}
}

// beginOutage takes the resource down: every in-flight job is
// cancelled locally and failed back to its submitter.
func (t *target) beginOutage() {
	if t.down {
		return
	}
	t.down = true
	t.in.note(KindOutage, t.name, kinds[KindOutage].opens)
	jobs := t.inflight
	t.inflight = nil
	now := t.in.eng.Now()
	for _, f := range jobs {
		t.inner.Cancel(f.job.ID)
		if f.owner != nil {
			f.owner.Fail(f.job, now, "faults: resource outage")
		}
	}
}

func (t *target) endOutage() {
	if !t.down {
		return
	}
	t.down = false
	t.in.mark(KindOutage, t.name, kinds[KindOutage].closes)
}

// land ends the flight of a job whose report arrived and returns the
// owner it was submitted with; ok is false when the target holds no
// flight of j.
func (t *target) land(j *lrm.Job) (owner lrm.Owner, ok bool) {
	for i, f := range t.inflight {
		if f.job == j {
			t.inflight = slices.Delete(t.inflight, i, i+1)
			return f.owner, true
		}
	}
	return nil, false
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
	if t.down || t.open[KindMDSDrop] != nil {
		return // a dead container publishes nothing; the entry ages out
	}
	if t.open[KindMDSStale] != nil && t.haveLast {
		k.dst.Publish(t.lastInfo)
		return
	}
	t.lastInfo = info
	t.haveLast = true
	if ev := t.open[KindCapacityCollapse]; ev != nil {
		// Brownout: the resource advertises its collapsed capacity, so
		// the scheduler's backlog cap and ranking throttle it.
		info.TotalCPUs = collapse(ev, info.TotalCPUs)
		info.FreeCPUs = min(info.FreeCPUs, info.TotalCPUs)
	}
	k.dst.Publish(info)
}
