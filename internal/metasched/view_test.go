package metasched

import (
	"slices"
	"testing"

	"lattice/internal/grid/mds"
	"lattice/internal/lrm"
	"lattice/internal/obs"
	"lattice/internal/sim"
)

// viewGrid is a scheduler over hand-published resources: no provider
// runs, so the test decides exactly when the index changes.
type viewGrid struct {
	eng   *sim.Engine
	idx   *mds.Index
	sched *Scheduler
	res   map[string]*refusingLRM
}

// newViewGrid registers the named resources at the given speeds; none
// is published yet.
func newViewGrid(t testing.TB, cfg Config, speeds map[string]float64) *viewGrid {
	t.Helper()
	return newViewGridOn(t, sim.NewEngine(), cfg, Options{}, speeds)
}

// newViewGridOn is newViewGrid on a caller-made engine, for a test
// that wires the scheduler to a hub built on that engine.
func newViewGridOn(t testing.TB, eng *sim.Engine, cfg Config, opts Options, speeds map[string]float64) *viewGrid {
	t.Helper()
	idx, err := mds.NewIndex(eng, 5*sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	g := &viewGrid{eng: eng, idx: idx, sched: New(eng, idx, cfg, opts), res: make(map[string]*refusingLRM)}
	for _, name := range []string{"a-fast", "b-slow", "c-late"} {
		speed, ok := speeds[name]
		g.res[name] = &refusingLRM{eng: eng, name: name, runFor: sim.Hour, jobs: make(map[string]*lrm.Job)}
		if !ok {
			continue
		}
		if err := g.sched.Register(g.res[name], speed); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func (g *viewGrid) publish(names ...string) {
	for _, n := range names {
		g.idx.Publish(g.res[n].Info())
	}
}

func (g *viewGrid) submit(t *testing.T, id string) *GridJob {
	t.Helper()
	j, err := g.sched.Submit(jobDesc(id, 600), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func candidateNames(cands []candidate) []string {
	var out []string
	for _, c := range cands {
		out = append(out, c.info.Name)
	}
	return out
}

// An entry that outlives its TTL leaves the next placement's
// candidates although nothing was published in between.
func TestCandidateViewDropsExpiredEntryWithoutPublish(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RescanInterval = 0
	g := newViewGrid(t, cfg, map[string]float64{"a-fast": 4, "b-slow": 1})
	g.publish("a-fast") // expires just after t = 5 min
	var early, late *GridJob
	g.eng.Schedule(3*sim.Minute, func() { g.publish("b-slow") })
	g.eng.Schedule(4*sim.Minute, func() {
		if got := candidateNames(g.sched.candidates()); !slices.Equal(got, []string{"a-fast", "b-slow"}) {
			t.Errorf("t=4m candidates %v", got)
		}
		early = g.submit(t, "early")
	})
	g.eng.Schedule(6*sim.Minute, func() {
		if got := candidateNames(g.sched.candidates()); !slices.Equal(got, []string{"b-slow"}) {
			t.Errorf("t=6m candidates %v, want only b-slow", got)
		}
		late = g.submit(t, "late")
	})
	g.eng.Schedule(9*sim.Minute, func() {
		if got := g.sched.candidates(); len(got) != 0 {
			t.Errorf("t=9m candidates %v, want none", candidateNames(got))
		}
	})
	g.eng.RunUntil(sim.Time(10 * sim.Minute))
	if early.Resource != "a-fast" || late.Resource != "b-slow" {
		t.Errorf("early on %q (want a-fast), late on %q (want b-slow)", early.Resource, late.Resource)
	}
}

// A resource registered after the first placement is a candidate for
// the next one, with no publication in between.
func TestCandidateViewSeesLateRegister(t *testing.T) {
	g := newViewGrid(t, DefaultConfig(), map[string]float64{"b-slow": 1})
	g.publish("b-slow", "c-late")
	if first := g.submit(t, "first"); first.Resource != "b-slow" {
		t.Fatalf("first job on %q", first.Resource)
	}
	if err := g.sched.Register(g.res["c-late"], 8); err != nil {
		t.Fatal(err)
	}
	if second := g.submit(t, "second"); second.Resource != "c-late" {
		t.Errorf("second job on %q, want the newly registered c-late", second.Resource)
	}
}

// A gatekeeper refusal inside scanPending that publishes and re-enters
// placement replaces the scheduler's view; the slice the scan is
// iterating stays exactly as it was, and the scan finishes on it.
func TestCandidateViewSurvivesReentrantPlacement(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RescanInterval = 0
	g := newViewGrid(t, cfg, map[string]float64{"a-fast": 4, "b-slow": 1})
	p1, p2 := g.submit(t, "p1"), g.submit(t, "p2") // nothing published: both wait
	if len(g.sched.pending) != 2 {
		t.Fatalf("pending = %d, want 2", len(g.sched.pending))
	}
	g.publish("a-fast", "b-slow")
	held := g.sched.candidates()
	want := append([]candidate(nil), held...)

	var inner *GridJob
	a := g.res["a-fast"]
	a.failN = 1
	a.onRefuse = func() {
		// a-fast now reports no memory: ineligible in any new view.
		info := a.Info()
		info.NodeMemoryMB = 0
		g.idx.Publish(info)
		inner = g.submit(t, "inner")
	}
	g.sched.scanPending()

	for i := range want {
		if held[i].res != want[i].res || held[i].info.Name != want[i].info.Name ||
			held[i].info.NodeMemoryMB != want[i].info.NodeMemoryMB {
			t.Errorf("held view entry %d changed: %+v, was %+v", i, held[i].info, want[i].info)
		}
	}
	now := g.sched.candidates()
	if &now[0] == &held[0] {
		t.Fatal("re-entrant publication did not replace the view")
	}
	if now[0].info.Name != "a-fast" || now[0].info.NodeMemoryMB != 0 {
		t.Errorf("new view misses the publication: %+v", now[0].info)
	}
	if inner == nil || inner.Resource != "b-slow" {
		t.Errorf("re-entrant job is placed on the new view and should land on b-slow: %+v", inner)
	}
	if p1.Status != StatusPending {
		t.Errorf("refused job status %v, want pending (in backoff)", p1.Status)
	}
	// p2 is matched on the held view, where a-fast is still eligible
	// and, at 4×, wins.
	if p2.Status != StatusRunning || p2.Resource != "a-fast" {
		t.Errorf("p2 %v on %q; the scan should have finished on the view it started with", p2.Status, p2.Resource)
	}
}

func TestCandidateViewAndPlacementCounterDoNotAllocate(t *testing.T) {
	eng := sim.NewEngine()
	o := obs.New(eng)
	g := newViewGridOn(t, eng, DefaultConfig(), Options{Obs: o}, map[string]float64{"a-fast": 4, "b-slow": 1})
	g.publish("a-fast", "b-slow")
	g.submit(t, "warm") // resolves a-fast's placement counter
	if n := testing.AllocsPerRun(100, func() {
		if len(g.sched.candidates()) != 2 {
			t.Fatal("view lost a candidate")
		}
	}); n != 0 {
		t.Errorf("candidate view lookup with an unchanged index allocates %v", n)
	}
	a := g.sched.resources["a-fast"]
	if a.placements == nil || g.sched.resources["b-slow"].placements != nil {
		t.Fatal("placement counter should be resolved for the chosen resource only")
	}
	if n := testing.AllocsPerRun(100, func() { a.placements.Inc() }); n != 0 {
		t.Errorf("repeat placement increment allocates %v", n)
	}
	g.submit(t, "again")
	series, err := obs.ParseExposition(o.Exposition())
	if err != nil {
		t.Fatal(err)
	}
	if got := series[`lattice_sched_placements_total{policy="full",resource="a-fast"}`]; got != 103 {
		t.Errorf("a-fast placements series = %v, want 103 (2 placements + AllocsPerRun's 101 increments)", got)
	}
	for k := range series {
		if k == `lattice_sched_placements_total{policy="full",resource="b-slow"}` {
			t.Error("series exposed for a resource that was never chosen")
		}
	}
}
