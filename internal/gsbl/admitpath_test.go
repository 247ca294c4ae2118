package gsbl

import (
	"errors"
	"strings"
	"testing"

	"lattice/internal/admit"
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
	eng, sched, hub := testGrid(t)
	svc := mustService(t, eng, sched, Options{Obs: hub,
		Ingest: IngestConfig{PerSubmissionSeconds: 1, PerReplicateSeconds: 1},
		Admit:  admit.Config{MaxQueueDepth: 100}})
	// Heavy user floods first (cost 41s each); three small users (cost
	// 2s) arrive while the first heavy entry is already in service.
	for i := 0; i < 3; i++ {
		if _, err := svc.Submit(Request{Sub: userSubmission("heavy@x", 40), Origin: "service"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range []string{"a", "b", "c"} {
		if _, err := svc.Submit(Request{Sub: userSubmission(u+"@x", 1), Origin: "service"}); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(sim.Time(sim.Hour))
	// Batch IDs are stamped at accept, so ID order is drain order.
	var order []string
	for _, id := range svc.Batches() {
		b, _ := svc.Batch(id)
		order = append(order, strings.TrimSuffix(b.Submission.UserEmail, "@x"))
	}
	want := []string{"heavy", "a", "b", "c", "heavy", "heavy"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("drain order %v, want %v", order, want)
	}
	if q, o := svc.Sheds(); q != 0 || o != 0 {
		t.Fatalf("unexpected sheds: quota=%d overload=%d", q, o)
	}
}

// TestAdmitShedJournalsAndAccounts checks every rejected submission
// gets exactly one StageShed journal event, a request shed on arrival
// gets the typed rejection back from Submit, and submissions == batches
// + sheds.
func TestAdmitShedJournalsAndAccounts(t *testing.T) {
	eng, sched, hub := testGrid(t)
	// Budget of 25s: the door plus at most two queued 10s entries.
	svc := mustService(t, eng, sched, Options{Obs: hub,
		Ingest: IngestConfig{PerSubmissionSeconds: 10},
		Admit:  admit.Config{MaxQueuedSeconds: 25}})
	var rejections []*admit.Rejection
	const subs = 5
	for i := 0; i < subs; i++ {
		var rej *admit.Rejection
		if _, err := svc.Submit(Request{Sub: userSubmission("u@x", 1), Origin: "service"}); errors.As(err, &rej) {
			rejections = append(rejections, rej)
		} else if err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(sim.Time(sim.Hour))
	_, overload := svc.Sheds()
	if overload != len(rejections) || overload == 0 {
		t.Fatalf("overload sheds %d, rejections returned %d; want equal and > 0", overload, len(rejections))
	}
	for _, rej := range rejections {
		if rej.Reason != admit.ReasonOverload || rej.RetryAfter < sim.Second {
			t.Fatalf("rejection %+v", rej)
		}
	}
	var shedEvents int
	hub.Journal.Each(func(ev obs.Event) {
		if ev.Stage == obs.StageShed {
			shedEvents++
			if ev.Batch != "" || ev.Job != "" {
				t.Fatalf("shed event carries batch/job IDs: %+v", ev)
			}
			if !strings.Contains(ev.Detail, "retry after") {
				t.Fatalf("shed event missing retry hint: %q", ev.Detail)
			}
		}
	})
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
	eng, sched, hub := testGrid(t)
	svc := mustService(t, eng, sched, Options{Obs: hub,
		Ingest: IngestConfig{PerSubmissionSeconds: 1},
		Admit:  admit.Config{UserRatePerHour: 3600, UserBurst: 10}})
	if _, err := svc.Submit(Request{Sub: userSubmission("greedy@x", 8), Origin: "service"}); err != nil {
		t.Fatalf("first submission rejected: %v", err)
	}
	// 2 tokens left, 8 more wanted: refused synchronously, 6s refill.
	var rejected *admit.Rejection
	if _, err := svc.Submit(Request{Sub: userSubmission("greedy@x", 8), Origin: "service"}); !errors.As(err, &rejected) || rejected.Reason != admit.ReasonQuota {
		t.Fatalf("second submission not quota-rejected: %v", err)
	}
	if rejected.RetryAfter != 6*sim.Second {
		t.Fatalf("RetryAfter = %v, want 6s", rejected.RetryAfter)
	}
	if _, err := svc.Submit(Request{Sub: userSubmission("modest@x", 8), Origin: "service"}); err != nil {
		t.Fatalf("independent user rejected: %v", err)
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
	eng, sched, hub := testGrid(t)
	if _, err := NewService(eng, sched, sim.NewRNG(1), Options{Obs: hub, Admit: admit.Config{MaxQueueDepth: 1}}); err == nil {
		t.Fatal("NewService accepted admission control without the ingest model")
	}
	svc := mustService(t, eng, sched, Options{Obs: hub, Ingest: IngestConfig{PerSubmissionSeconds: 1}})
	if svc.AdmitActive() {
		t.Fatal("AdmitActive true without a controller")
	}
}
