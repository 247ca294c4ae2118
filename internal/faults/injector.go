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
		in:        in,
		inner:     inner,
		name:      name,
		churn:     churn,
		open:      make(map[Kind]*Event),
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

// note counts one injected fault and journals it. Each kind and
// resource's counter series is resolved at its first injection and
// kept.
func (in *Injector) note(k Kind, resource, detail string) {
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
	in.obs.Record("", "", obs.StageFault, resource, string(k)+": "+detail)
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

	submitRNG *sim.RNG
	resultRNG *sim.RNG

	// inflight tracks jobs submitted through the wrapper and not yet
	// terminal, in submission order, so an outage kills them
	// deterministically.
	inflight []*tracked
}

func (t *target) Name() string     { return t.inner.Name() }
func (t *target) Info() lrm.Info   { return t.inner.Info() }
func (t *target) Stats() lrm.Stats { return t.inner.Stats() }

func (t *target) Cancel(jobID string) bool {
	if i := slices.IndexFunc(t.inflight, func(k *tracked) bool { return k.j.ID == jobID }); i >= 0 {
		t.inflight = slices.Delete(t.inflight, i, i+1)
	}
	return t.inner.Cancel(jobID)
}

// Submit implements lrm.LRM. Each dispatch hands over an lrm.Job no
// earlier dispatch used — the first one inline in its grid job, every
// retry a fresh record — so rewriting its Owner here never leaks into a
// retry.
func (t *target) Submit(j *lrm.Job) error {
	if t.down {
		t.in.note(KindSubmitFail, t.name, "submit refused: resource down")
		return fmt.Errorf("faults: %s is down", t.name)
	}
	if ev := t.open[KindSubmitFail]; ev != nil && t.submitRNG.Bool(ev.P) {
		t.in.note(KindSubmitFail, t.name, "submit refused by gatekeeper")
		return fmt.Errorf("faults: %s gatekeeper refused the submission", t.name)
	}
	if ev := t.open[KindCapacityCollapse]; ev != nil && len(t.inflight) >= collapse(ev, t.inner.Info().TotalCPUs) {
		t.in.note(KindCapacityCollapse, t.name, "submit refused: capacity collapsed")
		return fmt.Errorf("faults: %s capacity collapsed", t.name)
	}
	k := &tracked{t: t, j: j, owner: j.Owner}
	j.Owner = k
	if err := t.inner.Submit(j); err != nil {
		return err
	}
	t.inflight = append(t.inflight, k)
	return nil
}

// collapse is the CPU count a capacity-collapse window leaves of cpus.
func collapse(ev *Event, cpus int) int {
	return max(1, int(ev.Factor*float64(cpus)))
}

// tracked stands between a job submitted through the wrapper and its
// owner: it forgets the job when it ends and applies the lost- and
// slow-result windows to its completion. It is also the event of a
// delayed result arriving.
type tracked struct {
	t     *target
	j     *lrm.Job
	owner lrm.Owner
}

// Complete draws for a lost result before a slow one.
func (k *tracked) Complete(at sim.Time) {
	t := k.t
	t.forget(k)
	if ev := t.open[KindLostResult]; ev != nil && t.resultRNG.Bool(ev.P) {
		t.in.note(KindLostResult, t.name, k.j.ID)
		if k.owner != nil {
			k.owner.Fail(at, "faults: result lost in transit")
		}
		return
	}
	if ev := t.open[KindSlowResult]; ev != nil && t.resultRNG.Bool(ev.P) {
		t.in.note(KindSlowResult, t.name, k.j.ID)
		t.in.eng.After(ev.Delay, k)
		return
	}
	if k.owner != nil {
		k.owner.Complete(at)
	}
}

func (k *tracked) Fail(at sim.Time, reason string) {
	k.t.forget(k)
	if k.owner != nil {
		k.owner.Fail(at, reason)
	}
}

// Fire delivers a slow result.
func (k *tracked) Fire() {
	if k.owner != nil {
		k.owner.Complete(k.t.in.eng.Now())
	}
}

// beginOutage takes the resource down: every tracked in-flight job is
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
	for _, k := range jobs {
		t.inner.Cancel(k.j.ID)
		k.Fail(now, "faults: resource outage")
	}
}

func (t *target) endOutage() {
	if !t.down {
		return
	}
	t.down = false
	t.in.mark(KindOutage, t.name, kinds[KindOutage].closes)
}

// forget drops a job that ended from the in-flight list.
func (t *target) forget(k *tracked) {
	t.inflight = slices.DeleteFunc(t.inflight, func(x *tracked) bool { return x == k })
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
