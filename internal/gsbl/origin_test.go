package gsbl

import (
	"strings"
	"testing"

	"lattice/internal/metasched"
	"lattice/internal/obs"
	"lattice/internal/sim"
)

// TestBatchOriginPropagation follows a workflow stage's identity down
// the stack: RunStage stamps Batch.Origin as "<run>/<stage>", the
// validation journal event names the origin, and the batch ID the
// stage received threads through the meta-scheduler's submit, place
// and dispatch events all the way to terminal completion.
func TestBatchOriginPropagation(t *testing.T) {
	eng := sim.NewEngine()
	o := obs.New(eng)
	sched := gridOn(t, eng, metasched.Options{Obs: o})
	svc := mustService(t, eng, sched, Options{Obs: o})

	fired, gotCompleted, gotFailed := 0, -1, -1
	id, err := svc.RunStage("wf-000001", "search", smallSubmission(3), func(c, f int) {
		fired++
		gotCompleted, gotFailed = c, f
	})
	if err != nil {
		t.Fatal(err)
	}
	b, ok := svc.Batch(id)
	if !ok {
		t.Fatalf("stage batch %s not registered", id)
	}
	if b.Origin != "wf-000001/search" {
		t.Fatalf("Batch.Origin = %q, want wf-000001/search", b.Origin)
	}

	eng.RunUntil(sim.Time(30 * sim.Day))
	if fired != 1 || gotCompleted != 3 || gotFailed != 0 {
		t.Fatalf("stage completion = (fired=%d, completed=%d, failed=%d), want (1, 3, 0)",
			fired, gotCompleted, gotFailed)
	}

	perStage := make(map[obs.Stage]int)
	for _, ev := range o.Journal.Events() {
		if ev.Batch != id {
			continue
		}
		perStage[ev.Stage]++
		if ev.Stage == obs.StageValidate && !strings.Contains(ev.Detail, "via wf-000001/search") {
			t.Errorf("validate detail %q does not name the stage origin", ev.Detail)
		}
	}
	if perStage[obs.StageValidate] != 1 {
		t.Errorf("validate events = %d, want 1", perStage[obs.StageValidate])
	}
	for _, st := range []obs.Stage{obs.StageSubmit, obs.StagePlace, obs.StageDispatch, obs.StageComplete} {
		if perStage[st] < 3 {
			t.Errorf("%s events under batch %s = %d, want >= 3 (one per replicate)",
				st, id, perStage[st])
		}
	}
	if perStage[obs.StageComplete] != 3 {
		t.Errorf("complete events = %d, want exactly 3", perStage[obs.StageComplete])
	}
}

// TestDirectOriginKeepsFlatDetail pins the pre-workflow validate
// detail byte-for-byte: journal digests of existing scenarios depend
// on it, so only derived stage batches may use the "via" form.
func TestDirectOriginKeepsFlatDetail(t *testing.T) {
	checkValidateDetail(t, IngestConfig{}, Request{Origin: "service", Direct: true},
		"2 replicates for researcher@example.edu")
}

// TestValidateDetailSpellings pins the other spellings through Submit:
// flat for anything expanded on the spot (no door, or past one), "via
// <origin>" only for a derived stage batch, "(ingest-drained)" for a
// request the front door reached.
func TestValidateDetailSpellings(t *testing.T) {
	door := IngestConfig{PerSubmissionSeconds: 5}
	for _, tc := range []struct {
		name   string
		ingest IngestConfig
		req    Request
		want   string
	}{
		{"door-off", IngestConfig{}, Request{Origin: "shard0/core"},
			"2 replicates for researcher@example.edu"},
		{"past-the-door", door, Request{Origin: "core", Direct: true},
			"2 replicates for researcher@example.edu"},
		{"derived", door, Request{Origin: "wf-000001/search", Direct: true, OnDone: func(BatchStatus) {}},
			"2 replicates for researcher@example.edu via wf-000001/search"},
		{"drained", door, Request{Origin: "portal"},
			"2 replicates for researcher@example.edu (ingest-drained)"},
	} {
		t.Run(tc.name, func(t *testing.T) { checkValidateDetail(t, tc.ingest, tc.req, tc.want) })
	}
}

// checkValidateDetail submits a two-replicate request and holds the one
// batch it becomes to the request's origin and the wanted validate
// detail.
func checkValidateDetail(t *testing.T, ingest IngestConfig, req Request, want string) {
	t.Helper()
	eng, sched := testGrid(t)
	o := obs.New(eng)
	svc := mustService(t, eng, sched, Options{Obs: o, Ingest: ingest})
	req.Sub = smallSubmission(2)
	if _, err := svc.Submit(req); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(sim.Minute))
	ids := svc.Batches()
	if len(ids) != 1 {
		t.Fatalf("%d batches, want 1", len(ids))
	}
	if b, _ := svc.Batch(ids[0]); b.Origin != req.Origin {
		t.Fatalf("Batch.Origin = %q, want %q", b.Origin, req.Origin)
	}
	for _, ev := range o.Journal.Events() {
		if ev.Batch == ids[0] && ev.Stage == obs.StageValidate {
			if ev.Detail != want {
				t.Fatalf("validate detail = %q; must stay byte-identical to %q", ev.Detail, want)
			}
			return
		}
	}
	t.Fatal("no validate event recorded")
}
