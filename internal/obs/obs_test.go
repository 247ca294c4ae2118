package obs

import (
	"math"
	"strings"
	"sync"
	"testing"

	"lattice/internal/sim"
)

func TestCounterGaugeValues(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored: counters are monotone
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %g, want 3.5", got)
	}
	g := r.Gauge("queue_depth", "depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %g, want 5", got)
	}
	// Same name+labels returns the same handle.
	if r.Counter("jobs_total", "jobs") != c {
		t.Fatal("counter handle not deduplicated")
	}
}

func TestCounterConcurrentAdds(t *testing.T) {
	c := NewRegistry().Counter("n", "")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %g, want %d", got, workers*per)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("wait_seconds", "", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	snaps := r.Snapshot()
	if len(snaps) != 1 || snaps[0].Kind != KindHistogram {
		t.Fatalf("snapshot = %+v", snaps)
	}
	snap := snaps[0]
	// Cumulative: ≤1 → 2 (0.5 and the exact bound 1), ≤10 → 3, ≤100 → 4, +Inf → 5.
	wantCum := []uint64{2, 3, 4, 5}
	for i, want := range wantCum {
		if snap.Buckets[i].Count != want {
			t.Fatalf("bucket %d = %d, want %d", i, snap.Buckets[i].Count, want)
		}
	}
	if !math.IsInf(snap.Buckets[3].UpperBound, 1) {
		t.Fatalf("last bucket bound = %g, want +Inf", snap.Buckets[3].UpperBound)
	}
	if snap.Count != 5 || snap.Sum != 556.5 {
		t.Fatalf("count=%d sum=%g, want 5 and 556.5", snap.Count, snap.Sum)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		r.Counter("b_total", "", L("x", "2")).Add(2)
		r.Counter("b_total", "", L("x", "1")).Add(1)
		r.Gauge("a_gauge", "").Set(9)
		r.Histogram("c_seconds", "", []float64{1, 10}, L("r", "pbs")).Observe(3)
		r.Counter("b_total", "", L("x", "1"), L("a", "z")).Inc()
		return r.Exposition()
	}
	first := build()
	for i := 0; i < 5; i++ {
		if got := build(); got != first {
			t.Fatalf("exposition differs between identical builds:\n%s\nvs\n%s", first, got)
		}
	}
	// Families sorted by name, series by canonical label key.
	ia, ib := strings.Index(first, "a_gauge"), strings.Index(first, "b_total")
	ic := strings.Index(first, "c_seconds")
	if !(ia < ib && ib < ic) {
		t.Fatalf("families out of order:\n%s", first)
	}
}

func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("lattice_jobs_total", "jobs accepted", L("policy", "full")).Add(12)
	r.Gauge("lattice_pending", "").Set(3.25)
	r.Histogram("lattice_wait_seconds", "queue wait", []float64{60, 3600}).Observe(90)
	r.Counter("lattice_faults_total", "", L("reason", "quote\" slash\\ newline\n")).Add(2)
	text := r.Exposition()
	m, err := ParseExposition(text)
	if err != nil {
		t.Fatal(err)
	}
	if m[`lattice_jobs_total{policy="full"}`] != 12 {
		t.Fatalf("counter lost in round trip: %v", m)
	}
	if m["lattice_pending"] != 3.25 {
		t.Fatalf("gauge lost in round trip: %v", m)
	}
	if m[`lattice_wait_seconds_bucket{le="3600"}`] != 1 || m["lattice_wait_seconds_count"] != 1 {
		t.Fatalf("histogram lost in round trip: %v", m)
	}
	if m[`lattice_faults_total{reason="quote\" slash\\ newline\n"}`] != 2 {
		t.Fatalf("escaped label value lost in round trip:\n%s", text)
	}
	if _, err := ParseExposition("garbage line with no value x"); err == nil {
		t.Fatal("malformed exposition accepted")
	}
}

func TestTracerSpansAndViews(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTracer(eng)
	root := tr.Root("batch-1")
	job := tr.Start("batch-1", "job-a", "job")
	eng.Schedule(10, func() {})
	eng.Run()
	job.Annotate("resource", "umd-hpc")
	job.End()
	job.End() // second End keeps the first end time
	views, ok := tr.Batch("batch-1")
	if !ok || len(views) != 2 {
		t.Fatalf("batch trace = %v ok=%v", views, ok)
	}
	if views[0].ID != root.id || views[0].Name != "batch" || views[0].InFlight != true {
		t.Fatalf("root view wrong: %+v", views[0])
	}
	jv := views[1]
	if jv.Parent != root.id || jv.Job != "job-a" || jv.Start != 0 || jv.End != 10 || jv.InFlight {
		t.Fatalf("job view wrong: %+v", jv)
	}
	if len(jv.Attrs) != 1 || jv.Attrs[0] != (Attr{Key: "resource", Value: "umd-hpc"}) {
		t.Fatalf("attrs wrong: %+v", jv.Attrs)
	}
	if _, ok := tr.Batch("nope"); ok {
		t.Fatal("unknown batch reported a trace")
	}
}

func TestJournalDigestAndConservation(t *testing.T) {
	run := func() (string, map[string]int) {
		eng := sim.NewEngine()
		j := NewJournal(eng)
		j.Record("b1", "j1", StageSubmit, "", "")
		eng.Schedule(5, func() { j.Record("b1", "j1", StageRun, "pbs", "") })
		eng.Schedule(9, func() { j.Record("b1", "j1", StageComplete, "pbs", "") })
		eng.Schedule(9, func() { j.Record("b1", "j2", StageSubmit, "", "") })
		eng.Run()
		return j.Digest(), j.TerminalCounts()
	}
	d1, t1 := run()
	d2, _ := run()
	if d1 != d2 {
		t.Fatalf("same event sequence, different digests: %s vs %s", d1, d2)
	}
	if t1["j1"] != 1 || t1["j2"] != 0 {
		t.Fatalf("terminal counts = %v", t1)
	}
	// Any difference — even in a detail string — changes the digest.
	eng := sim.NewEngine()
	j := NewJournal(eng)
	j.Record("b1", "j1", StageSubmit, "", "x")
	if j.Digest() == d1 {
		t.Fatal("different journals share a digest")
	}
}

func TestNilSafety(t *testing.T) {
	var o *Obs
	o.Counter("x", "").Inc()
	o.Gauge("x2", "").Set(1)
	o.Histogram("x3", "", nil).Observe(1)
	o.Record("b", "j", StageSubmit, "", "")
	o.Root("b").End()
	sp := o.Span("b", "j", "job")
	sp.Annotate("k", "v")
	sp.End()
	if o.Exposition() != "" {
		t.Fatal("nil Obs exposed metrics")
	}
	var j *Journal
	j.Record("", "", StageRun, "", "")
	if j.Digest() != "" || j.Len() != 0 || j.Events() != nil || j.TerminalCounts() != nil {
		t.Fatal("nil journal not inert")
	}
	var tr *Tracer
	if tr.Root("b") != nil || tr.NumBatches() != 0 {
		t.Fatal("nil tracer not inert")
	}
}
