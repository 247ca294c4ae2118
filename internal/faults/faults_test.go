package faults

import (
	"strings"
	"testing"

	"lattice/internal/grid/mds"
	"lattice/internal/lrm"
	"lattice/internal/obs"
	"lattice/internal/sim"
)

// fakeLRM runs every accepted job for runFor, then completes it. It
// records submissions and cancellations so tests can see exactly what
// reached the inner resource.
type fakeLRM struct {
	eng       *sim.Engine
	name      string
	runFor    sim.Duration
	jobs      map[string]*lrm.Job
	submitted int
	cancelled []string
}

func newFakeLRM(eng *sim.Engine, name string, runFor sim.Duration) *fakeLRM {
	return &fakeLRM{eng: eng, name: name, runFor: runFor, jobs: make(map[string]*lrm.Job)}
}

func (f *fakeLRM) Name() string     { return f.name }
func (f *fakeLRM) Stats() lrm.Stats { return lrm.Stats{} }
func (f *fakeLRM) Info() lrm.Info {
	return lrm.Info{Name: f.name, Kind: "pbs", TotalCPUs: 4, FreeCPUs: 4 - len(f.jobs), Stable: true}
}

func (f *fakeLRM) Submit(j *lrm.Job) error {
	f.submitted++
	f.jobs[j.ID] = j
	f.eng.Schedule(f.runFor, func() {
		if _, ok := f.jobs[j.ID]; !ok {
			return // cancelled meanwhile
		}
		delete(f.jobs, j.ID)
		if j.Owner != nil {
			j.Owner.Complete(j, f.eng.Now())
		}
	})
	return nil
}

func (f *fakeLRM) Cancel(id string) bool {
	if _, ok := f.jobs[id]; !ok {
		return false
	}
	delete(f.jobs, id)
	f.cancelled = append(f.cancelled, id)
	return true
}

// harness wires one fake resource through an injector.
type harness struct {
	eng  *sim.Engine
	in   *Injector
	fake *fakeLRM
	res  lrm.LRM
}

func newHarness(t *testing.T, seed int64, runFor sim.Duration, sch Schedule) *harness {
	t.Helper()
	eng := sim.NewEngine()
	in := NewInjector(eng, sim.NewRNG(seed), nil)
	fake := newFakeLRM(eng, "res-a", runFor)
	res := in.Wrap(fake)
	if err := in.Apply(sch); err != nil {
		t.Fatal(err)
	}
	return &harness{eng: eng, in: in, fake: fake, res: res}
}

// job builds a minimal lrm.Job with outcome recording.
type outcome struct {
	completedAt sim.Time
	failReason  string
	done        bool
}

func job(id string, o *outcome) *lrm.Job {
	return &lrm.Job{
		ID: id, Work: 1,
		Owner: &lrm.Callbacks{
			OnComplete: func(at sim.Time) { o.done = true; o.completedAt = at },
			OnFail:     func(_ sim.Time, reason string) { o.done = true; o.failReason = reason },
		},
	}
}

func TestPassThroughWhenIdle(t *testing.T) {
	h := newHarness(t, 1, sim.Hour, Schedule{})
	var o outcome
	if err := h.res.Submit(job("j1", &o)); err != nil {
		t.Fatal(err)
	}
	h.eng.RunUntil(sim.Time(2 * sim.Hour))
	if !o.done || o.failReason != "" {
		t.Fatalf("job did not complete cleanly: %+v", o)
	}
	if o.completedAt != sim.Time(sim.Hour) {
		t.Errorf("completion at %v, want 1h", o.completedAt)
	}
	if n := len(h.in.Injected()); n != 0 {
		t.Errorf("idle injector reported %d fault kinds", n)
	}
	if h.res.Name() != "res-a" || h.res.Info().Name != "res-a" {
		t.Error("wrapper does not pass through identity")
	}
}

func TestOutageKillsInFlightAndRefusesSubmits(t *testing.T) {
	sch := Schedule{Events: []Event{{
		At: sim.Time(sim.Hour), Kind: KindOutage, Resource: "res-a", Duration: sim.Hour,
	}}}
	h := newHarness(t, 1, 3*sim.Hour, sch)
	var victim outcome
	if err := h.res.Submit(job("victim", &victim)); err != nil {
		t.Fatal(err)
	}
	h.eng.Schedule(90*sim.Minute, func() { // mid-outage
		if !h.in.targets["res-a"].down {
			t.Error("resource should be down at t=90min")
		}
		var o outcome
		if err := h.res.Submit(job("refused", &o)); err == nil {
			t.Error("submit during outage accepted")
		} else if !strings.Contains(err.Error(), "faults:") {
			t.Errorf("outage refusal not attributed to faults: %v", err)
		}
	})
	var late outcome
	h.eng.Schedule(150*sim.Minute, func() { // after recovery
		if h.in.targets["res-a"].down {
			t.Error("resource should be back up at t=150min")
		}
		if err := h.res.Submit(job("late", &late)); err != nil {
			t.Errorf("submit after recovery refused: %v", err)
		}
	})
	h.eng.RunUntil(sim.Time(12 * sim.Hour))
	if victim.failReason != "faults: resource outage" {
		t.Errorf("in-flight job outcome: %+v", victim)
	}
	if len(h.fake.cancelled) != 1 || h.fake.cancelled[0] != "victim" {
		t.Errorf("inner cancellations: %v", h.fake.cancelled)
	}
	if !late.done || late.failReason != "" {
		t.Errorf("post-recovery job outcome: %+v", late)
	}
	inj := h.in.Injected()
	if inj[KindOutage] != 1 || inj[KindSubmitFail] != 1 {
		t.Errorf("Injected() = %v", inj)
	}
}

func TestSubmitFailWindow(t *testing.T) {
	sch := Schedule{Events: []Event{{
		At: 0, Kind: KindSubmitFail, Resource: "res-a", Duration: sim.Hour, P: 1,
	}}}
	h := newHarness(t, 1, sim.Minute, sch)
	h.eng.Schedule(sim.Minute, func() {
		var o outcome
		if err := h.res.Submit(job("j1", &o)); err == nil {
			t.Error("p=1 gatekeeper accepted a submission")
		}
	})
	var after outcome
	h.eng.Schedule(2*sim.Hour, func() { // window closed
		if err := h.res.Submit(job("j2", &after)); err != nil {
			t.Errorf("submit after window refused: %v", err)
		}
	})
	h.eng.RunUntil(sim.Time(3 * sim.Hour))
	if !after.done || after.failReason != "" {
		t.Errorf("post-window job outcome: %+v", after)
	}
	if h.fake.submitted != 1 {
		t.Errorf("inner saw %d submissions, want 1", h.fake.submitted)
	}
	if h.in.Injected()[KindSubmitFail] != 1 {
		t.Errorf("Injected() = %v", h.in.Injected())
	}
}

func TestLostResultFailsTheJob(t *testing.T) {
	sch := Schedule{Events: []Event{{
		At: 0, Kind: KindLostResult, Resource: "res-a", Duration: sim.Day, P: 1,
	}}}
	h := newHarness(t, 1, sim.Hour, sch)
	var o outcome
	if err := h.res.Submit(job("j1", &o)); err != nil {
		t.Fatal(err)
	}
	h.eng.RunUntil(sim.Time(2 * sim.Hour))
	if o.failReason != "faults: result lost in transit" {
		t.Errorf("outcome: %+v", o)
	}
	if h.in.Injected()[KindLostResult] != 1 {
		t.Errorf("Injected() = %v", h.in.Injected())
	}
}

func TestSlowResultDelaysCompletion(t *testing.T) {
	sch := Schedule{Events: []Event{{
		At: 0, Kind: KindSlowResult, Resource: "res-a", Duration: sim.Day, P: 1, Delay: 2 * sim.Hour,
	}}}
	h := newHarness(t, 1, sim.Hour, sch)
	var o outcome
	if err := h.res.Submit(job("j1", &o)); err != nil {
		t.Fatal(err)
	}
	h.eng.RunUntil(sim.Time(sim.Day))
	if !o.done || o.failReason != "" {
		t.Fatalf("outcome: %+v", o)
	}
	if o.completedAt != sim.Time(3*sim.Hour) { // 1h run + 2h delay
		t.Errorf("completed at %v, want 3h", o.completedAt)
	}
	if h.in.Injected()[KindSlowResult] != 1 {
		t.Errorf("Injected() = %v", h.in.Injected())
	}
}

func TestSinkDropAndStale(t *testing.T) {
	eng := sim.NewEngine()
	in := NewInjector(eng, sim.NewRNG(1), nil)
	fake := newFakeLRM(eng, "res-a", sim.Hour)
	in.Wrap(fake)
	err := in.Apply(Schedule{Events: []Event{
		{At: sim.Time(10 * sim.Minute), Kind: KindMDSStale, Resource: "res-a", Duration: 10 * sim.Minute},
		{At: sim.Time(30 * sim.Minute), Kind: KindMDSDrop, Resource: "res-a", Duration: 20 * sim.Minute},
	}})
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := mds.NewIndex(eng, 5*sim.Minute)
	if err := mds.StartProvider(eng, in.Sink(idx), fake, sim.Minute); err != nil {
		t.Fatal(err)
	}
	// A job submitted at t=5min changes FreeCPUs; during the stale
	// burst the index must keep showing the pre-burst value.
	eng.Schedule(12*sim.Minute, func() { fake.jobs["ghost"] = &lrm.Job{ID: "ghost"} })
	eng.Schedule(15*sim.Minute, func() {
		e, ok := idx.Lookup("res-a")
		if !ok {
			t.Fatal("entry missing during stale burst")
		}
		if e.Info.FreeCPUs != 4 {
			t.Errorf("stale burst leaked fresh FreeCPUs=%d", e.Info.FreeCPUs)
		}
	})
	eng.Schedule(25*sim.Minute, func() { // burst over: fresh info flows again
		e, ok := idx.Lookup("res-a")
		if !ok || e.Info.FreeCPUs != 3 {
			t.Errorf("post-burst entry: %+v ok=%v", e, ok)
		}
	})
	// During the drop window publications vanish — the cached view is
	// not refreshed by them — and the entry ages out.
	var dropVersion uint64
	eng.Schedule(32*sim.Minute, func() { _, dropVersion = idx.View() })
	eng.Schedule(34*sim.Minute, func() {
		if view, version := idx.View(); version != dropVersion || len(view) != 1 {
			t.Errorf("swallowed publications refreshed the view: version %d→%d, %d entries", dropVersion, version, len(view))
		}
	})
	eng.Schedule(45*sim.Minute, func() {
		if _, ok := idx.Lookup("res-a"); ok {
			t.Error("entry still fresh mid-drop; publications not dropped")
		}
		if view, _ := idx.View(); len(view) != 0 {
			t.Errorf("aged-out entry still in the view: %+v", view)
		}
	})
	eng.Schedule(55*sim.Minute, func() { // publications restored
		if _, ok := idx.Lookup("res-a"); !ok {
			t.Error("entry did not come back after the drop window")
		}
	})
	eng.RunUntil(sim.Time(sim.Hour))
	inj := in.Injected()
	if inj[KindMDSStale] != 1 || inj[KindMDSDrop] != 1 {
		t.Errorf("Injected() = %v", inj)
	}
}

func TestSinkForwardsUnknownResources(t *testing.T) {
	eng := sim.NewEngine()
	in := NewInjector(eng, sim.NewRNG(1), nil)
	idx, _ := mds.NewIndex(eng, 5*sim.Minute)
	in.Sink(idx).Publish(lrm.Info{Name: "outsider", FreeCPUs: 2})
	if e, ok := idx.Lookup("outsider"); !ok || e.Info.FreeCPUs != 2 {
		t.Error("publication for unwrapped resource not forwarded")
	}
}

// fakeChurner is a resource that records churn requests.
type fakeChurner struct {
	*fakeLRM
	asked, served int
}

func (c *fakeChurner) Churn(n int) int { c.asked = n; c.served = n - 1; return c.served }

// TestChurnEvent: wrapping a resource that is a Churner is what makes
// it a churn target.
func TestChurnEvent(t *testing.T) {
	eng := sim.NewEngine()
	in := NewInjector(eng, sim.NewRNG(1), nil)
	c := &fakeChurner{fakeLRM: newFakeLRM(eng, "boinc-x", sim.Hour)}
	in.Wrap(c)
	err := in.Apply(Schedule{Events: []Event{
		{At: sim.Time(sim.Hour), Kind: KindChurn, Resource: "boinc-x", Hosts: 10},
	}})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(2 * sim.Hour))
	if c.asked != 10 || c.served != 9 {
		t.Errorf("churner saw asked=%d served=%d", c.asked, c.served)
	}
	if in.Injected()[KindChurn] != 1 {
		t.Errorf("Injected() = %v", in.Injected())
	}
}

func TestFlapDeterminism(t *testing.T) {
	trace := func(seed int64) []sim.Time {
		eng := sim.NewEngine()
		in := NewInjector(eng, sim.NewRNG(seed), nil)
		in.Wrap(newFakeLRM(eng, "res-a", sim.Hour))
		err := in.Apply(Schedule{Flaps: []Flap{
			{Resource: "res-a", MeanUp: 4 * sim.Hour, MeanDown: 30 * sim.Minute, Until: sim.Time(5 * sim.Day)},
		}})
		if err != nil {
			t.Fatal(err)
		}
		var downAt []sim.Time
		for h := 1; h <= 5*24; h++ {
			at := sim.Time(sim.Duration(h) * sim.Hour)
			eng.ScheduleAt(at, func() {
				if in.targets["res-a"].down {
					downAt = append(downAt, at)
				}
			})
		}
		eng.RunUntil(sim.Time(6 * sim.Day))
		if in.Injected()[KindOutage] == 0 {
			t.Fatal("flap never took the resource down in 5 days")
		}
		return downAt
	}
	a, b := trace(42), trace(42)
	if len(a) != len(b) {
		t.Fatalf("same-seed flap traces differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed flap traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if c := trace(43); len(c) == len(a) {
		// Different seeds may coincide in length, but the full traces
		// should not be identical; tolerate equality only if times differ.
		same := true
		for i := range c {
			if c[i] != a[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical flap traces")
		}
	}
}

func TestValidateRejectsBadSchedules(t *testing.T) {
	cases := []struct {
		name string
		sch  Schedule
	}{
		{"negative time", Schedule{Events: []Event{{At: -1, Kind: KindOutage, Resource: "r", Duration: sim.Hour}}}},
		{"no resource", Schedule{Events: []Event{{Kind: KindOutage, Duration: sim.Hour}}}},
		{"unknown kind", Schedule{Events: []Event{{Kind: Kind("weird"), Resource: "r"}}}},
		{"outage without duration", Schedule{Events: []Event{{Kind: KindOutage, Resource: "r"}}}},
		{"submit-fail p=0", Schedule{Events: []Event{{Kind: KindSubmitFail, Resource: "r", Duration: sim.Hour}}}},
		{"submit-fail p>1", Schedule{Events: []Event{{Kind: KindSubmitFail, Resource: "r", Duration: sim.Hour, P: 1.5}}}},
		{"slow without delay", Schedule{Events: []Event{{Kind: KindSlowResult, Resource: "r", Duration: sim.Hour, P: 0.5}}}},
		{"churn without hosts", Schedule{Events: []Event{{Kind: KindChurn, Resource: "r"}}}},
		{"flap without means", Schedule{Flaps: []Flap{{Resource: "r"}}}},
		{"flap horizon before start", Schedule{Flaps: []Flap{
			{Resource: "r", MeanUp: sim.Hour, MeanDown: sim.Hour, Start: sim.Time(sim.Day), Until: sim.Time(sim.Hour)},
		}}},
	}
	for _, c := range cases {
		if err := c.sch.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", c.name)
		}
	}
}

// TestValidateRejectsOverlappingWindows: a window's close clears its
// kind's state on the resource, so two windows of one kind there must
// not meet — touching counts, since the engine may run the second
// window's open before the first one's close. A resource has at most
// one outage source.
func TestValidateRejectsOverlappingWindows(t *testing.T) {
	h := func(n int) sim.Time { return sim.Time(sim.Duration(n) * sim.Hour) }
	gate := func(r string, from, to int) Event {
		return Event{At: h(from), Kind: KindSubmitFail, Resource: r, Duration: sim.Duration(to-from) * sim.Hour, P: 1}
	}
	flap := Flap{Resource: "res-a", MeanUp: sim.Hour, MeanDown: sim.Hour}
	bad := map[string]Schedule{
		"overlapping windows": {Events: []Event{gate("res-a", 0, 2), gate("res-a", 1, 3)}},
		"touching windows":    {Events: []Event{gate("res-a", 1, 2), gate("res-a", 0, 1)}},
		"nested windows":      {Events: []Event{gate("res-a", 0, 5), gate("res-a", 1, 2)}},
		"overlapping spikes": {Events: []Event{
			{At: 0, Kind: KindDemandSpike, Resource: "door", Duration: sim.Hour, Factor: 2},
			{At: h(1), Kind: KindDemandSpike, Resource: "door", Duration: sim.Hour, Factor: 3},
		}},
		"outage on a flapping resource": {
			Events: []Event{{At: h(1), Kind: KindOutage, Resource: "res-a", Duration: sim.Hour}},
			Flaps:  []Flap{flap},
		},
		"two flaps on one resource": {Flaps: []Flap{flap, flap}},
	}
	for name, sch := range bad {
		if err := sch.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", name)
		}
	}
	ok := Schedule{
		Events: []Event{
			gate("res-a", 0, 1), gate("res-a", 2, 3), gate("res-b", 0, 3),
			{At: 0, Kind: KindLostResult, Resource: "res-a", Duration: 3 * sim.Hour, P: 1},
			{At: 0, Kind: KindOutage, Resource: "res-b", Duration: sim.Hour},
			{At: 0, Kind: KindChurn, Resource: "res-b", Hosts: 1},
			{At: 0, Kind: KindChurn, Resource: "res-b", Hosts: 2},
		},
		Flaps: []Flap{flap, {Resource: "res-c", MeanUp: sim.Hour, MeanDown: sim.Hour}},
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("disjoint windows rejected: %v", err)
	}
}

func TestApplyRejectsUnwiredTargets(t *testing.T) {
	eng := sim.NewEngine()
	in := NewInjector(eng, sim.NewRNG(1), nil)
	if err := in.Apply(Schedule{Events: []Event{
		{Kind: KindOutage, Resource: "ghost", Duration: sim.Hour},
	}}); err == nil {
		t.Error("Apply accepted an event for an unwrapped resource")
	}
	if err := in.Apply(Schedule{Events: []Event{
		{Kind: KindChurn, Resource: "ghost", Hosts: 3},
	}}); err == nil {
		t.Error("Apply accepted churn with no churner attached")
	}
	in.Wrap(newFakeLRM(eng, "plain", sim.Hour))
	if err := in.Apply(Schedule{Events: []Event{
		{Kind: KindChurn, Resource: "plain", Hosts: 3},
	}}); err == nil {
		t.Error("Apply accepted churn on a wrapped resource that is no Churner")
	}
	if err := in.Apply(Schedule{Flaps: []Flap{
		{Resource: "ghost", MeanUp: sim.Hour, MeanDown: sim.Hour},
	}}); err == nil {
		t.Error("Apply accepted a flap for an unwrapped resource")
	}
}

func TestCrashStopsEngine(t *testing.T) {
	h := newHarness(t, 1, sim.Hour, Schedule{CrashAt: []sim.Time{sim.Time(30 * sim.Minute)}})
	var o outcome
	if err := h.res.Submit(job("j1", &o)); err != nil {
		t.Fatal(err)
	}
	h.eng.RunUntil(sim.Time(2 * sim.Hour))
	if !h.in.Crashed() {
		t.Fatal("Crashed() = false after a scheduled kill")
	}
	if h.eng.Now() != sim.Time(30*sim.Minute) {
		t.Errorf("engine stopped at %v, want the 30m kill", h.eng.Now())
	}
	if o.done {
		t.Error("job reached a terminal state past the kill")
	}
	if h.in.Injected()[KindCrash] != 1 {
		t.Errorf("injected = %v, want one crash", h.in.Injected())
	}
	// The event queue survives the stop: a resumed engine (recovery
	// re-arms crashStops on a fresh injector; here we just clear the
	// flag) finishes the in-flight job.
	h.eng.RunUntil(sim.Time(2 * sim.Hour))
	if !o.done || o.failReason != "" {
		t.Fatalf("job did not complete after resume: %+v", o)
	}
}

func TestCrashDisarmed(t *testing.T) {
	h := newHarness(t, 1, sim.Hour, Schedule{CrashAt: []sim.Time{sim.Time(30 * sim.Minute)}})
	h.in.SetCrashStops(false)
	var o outcome
	if err := h.res.Submit(job("j1", &o)); err != nil {
		t.Fatal(err)
	}
	h.eng.RunUntil(sim.Time(2 * sim.Hour))
	if h.in.Crashed() {
		t.Error("disarmed kill still reported Crashed()")
	}
	if !o.done || o.failReason != "" {
		t.Fatalf("job did not complete under a disarmed kill: %+v", o)
	}
	// The kill is still journaled — rebuilds and uninterrupted twins
	// must share identical journals.
	if h.in.Injected()[KindCrash] != 1 {
		t.Errorf("injected = %v, want the kill noted", h.in.Injected())
	}
}

func TestCrashValidate(t *testing.T) {
	sch := Schedule{CrashAt: []sim.Time{-1}}
	if err := sch.Validate(); err == nil {
		t.Error("Validate accepted a crash before t=0")
	}
}

// holdingLRM keeps the last job handed to it and reports nothing on its
// own: the test plays the resource's report.
type holdingLRM struct{ held *lrm.Job }

func (h *holdingLRM) Name() string            { return "held" }
func (h *holdingLRM) Stats() lrm.Stats        { return lrm.Stats{} }
func (h *holdingLRM) Info() lrm.Info          { return lrm.Info{Name: "held", TotalCPUs: 1} }
func (h *holdingLRM) Cancel(string) bool      { return false }
func (h *holdingLRM) Submit(j *lrm.Job) error { h.held = j; return nil }

// countingOwner counts the reports it is given.
type countingOwner struct{ completed, failed int }

func (c *countingOwner) Complete(*lrm.Job, sim.Time)     { c.completed++ }
func (c *countingOwner) Fail(*lrm.Job, sim.Time, string) { c.failed++ }

// TestWrappedDispatchAllocatesNothing: a warm submit→complete cycle
// through an idle wrapper, and a submission a down one refuses,
// allocate nothing. The wrapper stands as the Owner of every job it
// forwards, its in-flight entry is a value in a list that has grown,
// and its refusal and the refusal's journal detail were built before.
// A dispatch once cost a record of its own, and a refusal its error
// and its joined detail.
func TestWrappedDispatchAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine()
	in := NewInjector(eng, sim.NewRNG(1), obs.New(eng))
	inner := &holdingLRM{}
	res := in.Wrap(inner)
	if err := in.Apply(Schedule{}); err != nil {
		t.Fatal(err)
	}
	owner := &countingOwner{}
	j := &lrm.Job{ID: "j", Work: 1}
	cycle := func() {
		j.Owner = owner
		if err := res.Submit(j); err != nil {
			t.Fatal(err)
		}
		inner.held.Owner.Complete(inner.held, eng.Now())
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a submit→complete cycle through the wrapper allocates %v, want 0", n)
	}
	if owner.completed != 101 || owner.failed != 0 {
		t.Errorf("owner told %d completions and %d failures, want 101 and 0", owner.completed, owner.failed)
	}
	in.targets["held"].beginOutage()
	refuse := func() {
		if err := res.Submit(j); err == nil || err.Error() != "faults: held is down" {
			t.Fatalf("Submit to a down resource returned %v", err)
		}
	}
	refuse() // resolves the kind's counter series
	if n := testing.AllocsPerRun(100, refuse); n != 0 {
		t.Errorf("a refused submission allocates %v, want 0", n)
	}
}
