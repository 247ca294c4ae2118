package core

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"lattice/internal/gsbl"
	"lattice/internal/metasched"
	"lattice/internal/obs"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// fetchTrace GETs /trace/<id> from h and decodes the span list; a
// non-200 answer comes back as (nil, code).
func fetchTrace(t *testing.T, h http.Handler, id string) ([]obs.SpanView, int) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/trace/"+id, nil))
	if rec.Code != http.StatusOK {
		return nil, rec.Code
	}
	var out struct {
		Batch string         `json:"batch"`
		Spans []obs.SpanView `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("/trace/%s: %v in %s", id, err, rec.Body)
	}
	if out.Batch != id {
		t.Fatalf("/trace/%s answered for batch %q", id, out.Batch)
	}
	return out.Spans, rec.Code
}

func terminal(j *metasched.GridJob) bool {
	return j.Status == metasched.StatusCompleted || j.Status == metasched.StatusFailed
}

// checkTrace holds /trace/<b.ID> to ground truth computed here from
// the batch, its grid jobs and the journal's place events. Span IDs are
// only ever compared with each other. It returns the largest number of
// placements any one job of the batch has seen.
func checkTrace(t *testing.T, lat *Lattice, b *gsbl.Batch) int {
	t.Helper()
	spans, code := fetchTrace(t, lat.Portal.Handler(), b.ID)
	if code != http.StatusOK {
		t.Fatalf("/trace/%s = %d", b.ID, code)
	}
	if len(spans) != 1+len(b.Jobs) {
		t.Fatalf("%s: %d spans for %d jobs", b.ID, len(spans), len(b.Jobs))
	}
	placed := map[string][]obs.Attr{}
	lat.Obs.Journal.Each(func(ev obs.Event) {
		if ev.Batch == b.ID && ev.Stage == obs.StagePlace {
			placed[ev.Job] = append(placed[ev.Job], obs.Attr{Key: "resource", Value: ev.Resource})
		}
	})

	root := spans[0]
	wantRoot := obs.SpanView{
		ID: root.ID, Name: "batch",
		Start: float64(b.CreatedAt), End: float64(b.DoneAt), InFlight: b.DoneAt == 0,
	}
	if !reflect.DeepEqual(root, wantRoot) {
		t.Errorf("%s root span = %+v, want %+v", b.ID, root, wantRoot)
	}
	if st, err := lat.Service.Status(b.ID); err != nil || st.Done == root.InFlight {
		t.Errorf("%s: root inFlight=%v but batch done=%v (err %v)", b.ID, root.InFlight, st.Done, err)
	}

	ids := map[uint64]bool{root.ID: true}
	most := 0
	for i, j := range b.Jobs {
		got := spans[1+i]
		want := obs.SpanView{
			ID: got.ID, Parent: root.ID, Job: j.ID, Name: "job",
			Start: float64(j.SubmittedAt), InFlight: !terminal(j),
			Attrs: placed[j.ID],
		}
		if terminal(j) {
			want.End = float64(j.CompletedAt)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s span %d = %+v, want %+v", b.ID, 1+i, got, want)
		}
		if ids[got.ID] {
			t.Errorf("%s span %d reuses ID %d", b.ID, 1+i, got.ID)
		}
		ids[got.ID] = true
		if len(got.Attrs) > most {
			most = len(got.Attrs)
		}
	}
	return most
}

func traceSubmission(email string, replicates int) workload.Submission {
	sub := recoverSubmission()
	sub.UserEmail = email
	sub.Replicates = replicates
	return sub
}

// TestTraceMatchesGroundTruth runs two batches through the default
// hostile schedule — jobs requeued off a dead cluster, reissued after
// lost results, re-placed after refused submits, failed for good by a
// flapping pool — and checks every span of both traces mid-run and at
// the end.
func TestTraceMatchesGroundTruth(t *testing.T) {
	cfg := recoverConfig(11)
	cfg.Faults = DefaultFaultSchedule()
	lat, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := lat.SubmitSubmission(traceSubmission("first@example.edu", 300))
	if err != nil {
		t.Fatal(err)
	}
	lat.Engine.RunUntil(sim.Time(3 * sim.Hour))
	second, err := lat.SubmitSubmission(traceSubmission("second@example.edu", 120))
	if err != nil {
		t.Fatal(err)
	}

	// Mid-run, inside umd-hpc's day-long outage.
	lat.Engine.RunUntil(sim.Time(9 * sim.Hour))
	for _, b := range []*gsbl.Batch{first, second} {
		checkTrace(t, lat, b)
		if b.DoneAt != 0 {
			t.Fatalf("fixture: %s already done at 9h", b.ID)
		}
	}

	runToDone(t, lat, first.ID)
	runToDone(t, lat, second.ID)
	most := 0
	for _, b := range []*gsbl.Batch{first, second} {
		if n := checkTrace(t, lat, b); n > most {
			most = n
		}
		if b.DoneAt == 0 {
			t.Errorf("%s finished without DoneAt", b.ID)
		}
	}
	if most < 2 {
		t.Errorf("fixture: no job was placed twice; the resource-attr order is untested")
	}
	failed := 0
	for _, b := range []*gsbl.Batch{first, second} {
		for _, j := range b.Jobs {
			if j.Status == metasched.StatusFailed {
				failed++
			}
		}
	}
	if failed == 0 {
		t.Errorf("fixture: no job failed for good; a failed span is untested")
	}
}

// TestTraceNotFound: only a batch has a trace. A workflow run's ID is
// recorded in the journal's Batch field too, but by wf-* events alone.
func TestTraceNotFound(t *testing.T) {
	lat, err := New(recoverConfig(33))
	if err != nil {
		t.Fatal(err)
	}
	run, err := lat.SubmitWorkflow(demoWorkflow("demo@example.edu"))
	if err != nil {
		t.Fatal(err)
	}
	lat.Run(2 * sim.Hour)
	stages := lat.Service.Batches()
	if len(stages) == 0 {
		t.Fatal("fixture: the workflow dispatched no stage batch")
	}
	for _, id := range stages {
		if _, code := fetchTrace(t, lat.Portal.Handler(), id); code != http.StatusOK {
			t.Errorf("/trace/%s = %d, want 200", id, code)
		}
	}
	for _, id := range []string{run.ID, "batch-999999", "nope"} {
		if _, code := fetchTrace(t, lat.Portal.Handler(), id); code != http.StatusNotFound {
			t.Errorf("/trace/%s = %d, want 404", id, code)
		}
	}
}

// TestTraceThroughClusterRouter: the front router sends
// /trace/shard<k>-batch-… to shard k, whose journal alone holds it.
func TestTraceThroughClusterRouter(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Shards: 2, Base: clusterBase(5)})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; len(seen) < 2 && i < 64; i++ {
		email := string(rune('a'+i%26)) + "@example.edu"
		seen[c.ScheduleSubmission(sim.Time(sim.Minute), clusterSubmission(email, int64(i)))] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatal("fixture: one shard received nothing")
	}
	c.RunUntil(sim.Time(2 * sim.Day))
	for k, l := range c.Shards {
		ids := l.Service.Batches()
		if len(ids) == 0 {
			t.Fatalf("shard %d holds no batch", k)
		}
		b, _ := l.Service.Batch(ids[0])
		viaRouter, code := fetchTrace(t, c.Handler(), b.ID)
		if code != http.StatusOK {
			t.Fatalf("router /trace/%s = %d", b.ID, code)
		}
		direct, _ := fetchTrace(t, l.Portal.Handler(), b.ID)
		if !reflect.DeepEqual(viaRouter, direct) {
			t.Errorf("shard %d: router and shard portal disagree on %s", k, b.ID)
		}
		checkTrace(t, l, b)
		// The other shard never saw the batch.
		if _, code := fetchTrace(t, c.Shards[1-k].Portal.Handler(), b.ID); code != http.StatusNotFound {
			t.Errorf("shard %d answers /trace/%s with %d, want 404", 1-k, b.ID, code)
		}
	}
}

// sansIDs blanks the span numbering, which belongs to whatever built
// the view and not to the batch's history.
func sansIDs(spans []obs.SpanView) []obs.SpanView {
	out := append([]obs.SpanView(nil), spans...)
	for i := range out {
		out[i].ID, out[i].Parent = 0, 0
	}
	return out
}

// TestTraceAfterRecover: a coordinator killed mid-batch and rebuilt
// from its WAL serves the trace the dying one did, and at the end the
// trace of a twin that never died.
func TestTraceAfterRecover(t *testing.T) {
	const seed = 11
	crashAt := sim.Time(4 * sim.Hour)
	sub := traceSubmission("recover@example.edu", 30)

	twinCfg := recoverConfig(seed)
	twinCfg.Faults = crashingSchedule(crashAt)
	twin, err := New(twinCfg)
	if err != nil {
		t.Fatal(err)
	}
	twin.Faults.SetCrashStops(false)
	twinBatch, err := twin.SubmitSubmission(sub)
	if err != nil {
		t.Fatal(err)
	}
	cfg := recoverConfig(seed)
	cfg.Faults = crashingSchedule(crashAt)
	cfg.Durable = t.TempDir() + "/wal"
	lat, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := lat.SubmitSubmission(sub)
	if err != nil {
		t.Fatal(err)
	}
	for !lat.Faults.Crashed() {
		pumpBoundary(lat)
	}
	dying, _ := fetchTrace(t, lat.Portal.Handler(), batch.ID)
	if len(dying) != 1+len(batch.Jobs) || !dying[0].InFlight {
		t.Fatalf("fixture: crash is not mid-batch (%d spans)", len(dying))
	}
	recovered, err := New(cfg)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	rb, ok := recovered.Service.Batch(batch.ID)
	if !ok {
		t.Fatalf("recovered service lost %s", batch.ID)
	}
	got, code := fetchTrace(t, recovered.Portal.Handler(), batch.ID)
	if code != http.StatusOK {
		t.Fatalf("/trace/%s after recovery = %d", batch.ID, code)
	}
	if !reflect.DeepEqual(sansIDs(got), sansIDs(dying)) {
		t.Errorf("trace right after recovery differs from the one the dying coordinator served")
	}
	checkTrace(t, recovered, rb)

	runToDone(t, twin, twinBatch.ID)
	runToDone(t, recovered, batch.ID)
	got, _ = fetchTrace(t, recovered.Portal.Handler(), batch.ID)
	want, _ := fetchTrace(t, twin.Portal.Handler(), twinBatch.ID)
	if !reflect.DeepEqual(sansIDs(got), sansIDs(want)) {
		t.Errorf("final trace after crash+recovery differs from the uninterrupted twin's")
	}
	checkTrace(t, recovered, rb)
	if err := recovered.DurableErr(); err != nil {
		t.Fatal(err)
	}
}
