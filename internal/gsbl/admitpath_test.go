package gsbl

import (
	"errors"
	"strings"
	"testing"

	"lattice/internal/admit"
	"lattice/internal/grid/rsl"
	"lattice/internal/lrm"
	"lattice/internal/obs"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

func userSubmission(email string, replicates int) workload.Submission {
	sub := smallSubmission(replicates)
	sub.UserEmail = email
	return sub
}

// TestAdmitFairShareOrdersDrains checks the tentpole property at the
// service level: with the fair-share queue installed, one heavy user's
// backlog no longer head-of-line-blocks small users who arrive behind
// it — the small submissions drain first.
func TestAdmitFairShareOrdersDrains(t *testing.T) {
	eng, sched := testGrid(t)
	svc := mustService(t, eng, sched, Options{
		Ingest: IngestConfig{PerSubmissionSeconds: 1, PerReplicateSeconds: 1},
		Admit:  admit.Config{MaxQueueDepth: 100}})
	var order []string
	accept := func(user string) func(*Batch, error) {
		return func(b *Batch, err error) {
			if err != nil {
				t.Fatalf("accept for %s: %v", user, err)
			}
			order = append(order, user)
		}
	}
	// Heavy user floods first (cost 41s each); three small users (cost
	// 2s) arrive while the first heavy entry is already in service.
	for i := 0; i < 3; i++ {
		if _, err := svc.Submit(Request{Sub: userSubmission("heavy@x", 40), Origin: "service", OnAccepted: accept("heavy")}); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range []string{"a", "b", "c"} {
		if _, err := svc.Submit(Request{Sub: userSubmission(u+"@x", 1), Origin: "service", OnAccepted: accept(u)}); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(sim.Time(sim.Hour))
	want := []string{"heavy", "a", "b", "c", "heavy", "heavy"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("drain order %v, want %v", order, want)
	}
	if q, o := svc.Sheds(); q != 0 || o != 0 {
		t.Fatalf("unexpected sheds: quota=%d overload=%d", q, o)
	}
}

// TestAdmitShedJournalsAndAccounts checks every rejected submission
// gets exactly one StageShed journal event, the typed rejection
// reaches the callback, and submissions == batches + sheds.
func TestAdmitShedJournalsAndAccounts(t *testing.T) {
	eng, sched := testGrid(t)
	hub := obs.New(eng)
	// Budget of 25s: the door plus at most two queued 10s entries.
	svc := mustService(t, eng, sched, Options{Obs: hub,
		Ingest: IngestConfig{PerSubmissionSeconds: 10},
		Admit:  admit.Config{MaxQueuedSeconds: 25}})
	var rejections []*admit.Rejection
	onAccepted := func(b *Batch, err error) {
		if err == nil {
			return
		}
		var rej *admit.Rejection
		if !errors.As(err, &rej) {
			t.Fatalf("callback error is %T, want *admit.Rejection", err)
		}
		rejections = append(rejections, rej)
	}
	const subs = 5
	for i := 0; i < subs; i++ {
		if _, err := svc.Submit(Request{Sub: userSubmission("u@x", 1), Origin: "service", OnAccepted: onAccepted}); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(sim.Time(sim.Hour))
	_, overload := svc.Sheds()
	if overload != len(rejections) || overload == 0 {
		t.Fatalf("overload sheds %d, rejection callbacks %d; want equal and > 0", overload, len(rejections))
	}
	for _, rej := range rejections {
		if rej.Reason != admit.ReasonOverload || rej.RetryAfter < sim.Second {
			t.Fatalf("rejection %+v", rej)
		}
	}
	var shedEvents int
	for _, ev := range hub.Journal.Events() {
		if ev.Stage == obs.StageShed {
			shedEvents++
			if ev.Batch != "" || ev.Job != "" {
				t.Fatalf("shed event carries batch/job IDs: %+v", ev)
			}
			if !strings.Contains(ev.Detail, "retry after") {
				t.Fatalf("shed event missing retry hint: %q", ev.Detail)
			}
		}
	}
	if shedEvents != overload {
		t.Fatalf("journal has %d shed events, want %d", shedEvents, overload)
	}
	// Exactly-one-terminal accounting: every submission is either a
	// batch or a shed.
	if got := len(svc.Batches()) + overload; got != subs {
		t.Fatalf("batches(%d) + sheds(%d) = %d, want %d submissions",
			len(svc.Batches()), overload, got, subs)
	}
}

// TestAdmitQuotaShedsRepeatOffender checks the per-user token bucket:
// a user who spends their replicate budget is refused with a
// refill-derived retry hint while other users pass untouched.
func TestAdmitQuotaShedsRepeatOffender(t *testing.T) {
	eng, sched := testGrid(t)
	svc := mustService(t, eng, sched, Options{
		Ingest: IngestConfig{PerSubmissionSeconds: 1},
		Admit:  admit.Config{UserRatePerHour: 3600, UserBurst: 10}})
	var rejected *admit.Rejection
	cb := func(b *Batch, err error) {
		var rej *admit.Rejection
		if errors.As(err, &rej) {
			rejected = rej
		}
	}
	if _, err := svc.Submit(Request{Sub: userSubmission("greedy@x", 8), Origin: "service", OnAccepted: cb}); err != nil {
		t.Fatal(err)
	}
	if rejected != nil {
		t.Fatalf("first submission rejected: %v", rejected)
	}
	// 2 tokens left, 8 more wanted: refused synchronously, 6s refill.
	if _, err := svc.Submit(Request{Sub: userSubmission("greedy@x", 8), Origin: "service", OnAccepted: cb}); err != nil {
		t.Fatal(err)
	}
	if rejected == nil || rejected.Reason != admit.ReasonQuota {
		t.Fatalf("second submission not quota-rejected: %+v", rejected)
	}
	if rejected.RetryAfter != 6*sim.Second {
		t.Fatalf("RetryAfter = %v, want 6s", rejected.RetryAfter)
	}
	rejected = nil
	if _, err := svc.Submit(Request{Sub: userSubmission("modest@x", 8), Origin: "service", OnAccepted: cb}); err != nil {
		t.Fatal(err)
	}
	if rejected != nil {
		t.Fatalf("independent user rejected: %v", rejected)
	}
	eng.RunUntil(sim.Time(sim.Hour))
	if q, _ := svc.Sheds(); q != 1 {
		t.Fatalf("quota sheds = %d, want 1", q)
	}
}

// TestAdmitRequiresIngest pins the wiring contract: the admission
// layer prices submissions with the ingest cost model, so enabling it
// without the ingest model is a construction error.
func TestAdmitRequiresIngest(t *testing.T) {
	eng, sched := testGrid(t)
	if _, err := NewService(eng, sched, &Mailer{}, sim.NewRNG(1), Options{Admit: admit.Config{MaxQueueDepth: 1}}); err == nil {
		t.Fatal("NewService accepted admission control without the ingest model")
	}
	svc := mustService(t, eng, sched, Options{Ingest: IngestConfig{PerSubmissionSeconds: 1}})
	if svc.AdmitActive() {
		t.Fatal("AdmitActive true without a controller")
	}
}

// TestIngestErrorJournaled forces a deferred expansion failure and
// checks it surfaces as a journal event and counter, not only in the
// IngestErrors slice. The collision: the scheduler's per-submission
// job IDs are sanitize(email)-rNNNN-seq, and seq only advances on
// SubmitBatch — pre-seeding a direct Submit with the ID the drain will
// generate makes the deferred expansion fail deterministically.
func TestIngestErrorJournaled(t *testing.T) {
	eng, sched := testGrid(t)
	hub := obs.New(eng)
	svc := mustService(t, eng, sched, Options{Obs: hub, Ingest: IngestConfig{PerSubmissionSeconds: 5}})

	// Occupy the job ID the drain-time expansion will generate
	// (replicate 0, batch sequence 1): the deferred SubmitBatch then
	// fails on the duplicate.
	desc := &rsl.JobDescription{
		JobID: "clash_example_edu-r0000-1", Executable: "garli", Count: 1,
		MaxMemoryMB: 256,
		Platforms:   []lrm.Platform{lrm.LinuxX86},
		Work:        60 * lrm.ReferenceCellsPerSecond,
	}
	if _, err := svc.sched.Submit(desc, nil, nil); err != nil {
		t.Fatalf("pre-seed Submit: %v", err)
	}
	var drainErr error
	if _, err := svc.Submit(Request{Sub: userSubmission("clash@example.edu", 1), Origin: "service", OnAccepted: func(b *Batch, err error) {
		drainErr = err
	}}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(sim.Minute))
	if drainErr == nil || !strings.Contains(drainErr.Error(), "duplicate job ID") {
		t.Fatalf("drain error = %v, want duplicate job ID", drainErr)
	}
	if len(svc.IngestErrors()) != 1 {
		t.Fatalf("IngestErrors = %v, want exactly one", svc.IngestErrors())
	}
	var found bool
	for _, ev := range hub.Journal.Events() {
		if ev.Stage == obs.StageFail && ev.Batch == "" && strings.Contains(ev.Detail, "deferred expansion failed") {
			found = true
		}
	}
	if !found {
		t.Fatal("deferred expansion failure not journaled")
	}
	snap := hub.Registry.Snapshot()
	var counted bool
	for _, s := range snap {
		if s.Name == "lattice_ingest_errors_total" && s.Value == 1 {
			counted = true
		}
	}
	if !counted {
		t.Fatalf("lattice_ingest_errors_total not incremented: %+v", snap)
	}
}
