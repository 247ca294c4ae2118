package obs

import (
	"math"
	"strconv"
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
	g.Set(5)
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

func TestTraceSpansAndViews(t *testing.T) {
	eng := sim.NewEngine()
	j := NewJournal(eng)
	j.Record("wf-1", "search", StageWfSubmit, "", "")
	j.Record("batch-1", "", StageValidate, "", "")
	j.Record("batch-1", "job-a", StageSubmit, "", "")
	j.Record("batch-1", "job-b", StageSubmit, "", "")
	j.Record("batch-2", "job-c", StageSubmit, "", "")
	eng.Schedule(4, func() {
		j.Record("batch-1", "job-a", StagePlace, "umd-condor", "")
		j.Record("batch-2", "job-c", StagePlace, "bio-sge", "")
		j.Record("batch-1", "job-a", StageRequeue, "umd-condor", "")
	})
	eng.Schedule(10, func() {
		j.Record("batch-1", "job-a", StagePlace, "umd-hpc", "")
		j.Record("batch-1", "job-a", StageComplete, "umd-hpc", "")
	})
	eng.Run()
	views, ok := j.Trace("batch-1")
	if !ok || len(views) != 3 {
		t.Fatalf("batch trace = %v ok=%v", views, ok)
	}
	root := views[0]
	if root.Parent != 0 || root.Name != "batch" || root.Job != "" || root.Start != 0 || root.End != 0 || !root.InFlight {
		t.Fatalf("root view wrong: %+v", root)
	}
	jv := views[1]
	if jv.Parent != root.ID || jv.Job != "job-a" || jv.Name != "job" || jv.Start != 0 || jv.End != 10 || jv.InFlight {
		t.Fatalf("job view wrong: %+v", jv)
	}
	want := []Attr{{Key: "resource", Value: "umd-condor"}, {Key: "resource", Value: "umd-hpc"}}
	if len(jv.Attrs) != 2 || jv.Attrs[0] != want[0] || jv.Attrs[1] != want[1] {
		t.Fatalf("attrs wrong: %+v", jv.Attrs)
	}
	if open := views[2]; open.Job != "job-b" || !open.InFlight || open.End != 0 || open.Attrs != nil || open.ID == jv.ID {
		t.Fatalf("open job view wrong: %+v", open)
	}

	// The batch closes with its last open job; a second terminal event
	// for a closed job moves nothing.
	eng.Schedule(5, func() { j.Record("batch-1", "job-b", StageFail, "", "cancelled by user") })
	eng.Schedule(7, func() { j.Record("batch-1", "job-a", StageFail, "umd-hpc", "late copy") })
	eng.Run()
	views, _ = j.Trace("batch-1")
	if views[0].InFlight || views[0].End != 15 || views[1].End != 10 || views[2].End != 15 {
		t.Fatalf("closed trace wrong: %+v", views)
	}
	// A workflow run files only wf-* events under its ID: no trace.
	for _, id := range []string{"nope", "wf-1", ""} {
		if v, ok := j.Trace(id); ok || v != nil {
			t.Fatalf("Trace(%q) = %v, %v; want no trace", id, v, ok)
		}
	}
}

// TestTraceWhileRecording: HTTP goroutines fold the journal while the
// simulation goroutine appends to it.
func TestTraceWhileRecording(t *testing.T) {
	j := NewJournal(sim.NewEngine())
	const jobs = 500
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				views, _ := j.Trace("b")
				open := 0
				for _, v := range views {
					if v.Name == "job" && v.InFlight {
						open++
					}
				}
				if len(views) > 0 && views[0].InFlight != (open > 0) {
					t.Errorf("root inFlight=%v with %d of %d jobs open", views[0].InFlight, open, len(views)-1)
					return
				}
				if len(views) == 1+jobs && open == 0 {
					return
				}
			}
		}()
	}
	for i := 0; i < jobs; i++ {
		j.Record("b", "j"+strconv.Itoa(i), StageSubmit, "", "")
	}
	for i := 0; i < jobs; i++ {
		j.Record("b", "j"+strconv.Itoa(i), StagePlace, "pbs", "")
		j.Record("b", "j"+strconv.Itoa(i), StageComplete, "pbs", "")
	}
	wg.Wait()
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
	if o.Exposition() != "" {
		t.Fatal("nil Obs exposed metrics")
	}
	var j *Journal
	j.Record("", "", StageRun, "", "")
	if j.Digest() != "" || j.Len() != 0 || j.events() != nil || j.TerminalCounts() != nil {
		t.Fatal("nil journal not inert")
	}
	if v, ok := j.Trace("b"); v != nil || ok {
		t.Fatal("nil journal served a trace")
	}
}
