package gsbl

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"lattice/internal/admit"
	"lattice/internal/obs"
	"lattice/internal/sim"
)

// TestEveryOfferHasOneOutcome feeds generated arrival sequences — three
// users, 1 to 2000 replicates, a tenth of them direct — through the
// admit door with tight bounds, and holds every Submit to exactly one
// outcome: its batch returned, its *admit.Rejection returned, or queued
// and then exactly one of accepted or shed, the shed by a later arrival
// (a request the door sheds on arrival gets its rejection back). Once
// the door is drained,
// accepted + shed for quota + shed for overload is what was offered,
// the journal holds one shed event per shed submission, naming it, and
// a second service fed the same sequence decides every offer the same.
func TestEveryOfferHasOneOutcome(t *testing.T) {
	kinds := map[string]int{}
	for seed := int64(1); seed <= 16; seed++ {
		first := offerSequence(t, seed)
		if second := offerSequence(t, seed); !slices.Equal(first, second) {
			t.Fatalf("seed %d: the same sequence decided differently:\n%s\n---\n%s",
				seed, strings.Join(first, "\n"), strings.Join(second, "\n"))
		}
		for _, o := range first {
			kind, _, _ := strings.Cut(o, " (")
			kinds[kind]++
		}
	}
	for _, kind := range []string{"batch", "shed on arrival: quota", "shed on arrival: overload", "queued, accepted", "queued, shed"} {
		if kinds[kind] == 0 {
			t.Errorf("no offer ended %q: %v", kind, kinds)
		}
	}
	t.Logf("outcomes: %v", kinds)
}

// offerSequence runs generated sequence seed through a fresh service
// and returns each offer's outcome, after checking the accounting.
func offerSequence(t *testing.T, seed int64) []string {
	t.Helper()
	const offers = 40
	eng, sched, hub := testGrid(t)
	d := &recordingDurable{}
	svc := mustService(t, eng, sched, Options{Obs: hub, Durable: d,
		Ingest: IngestConfig{PerSubmissionSeconds: 5, PerReplicateSeconds: 0.05},
		Admit:  admit.Config{UserRatePerHour: 1500, UserBurst: 2000, MaxQueueDepth: 2, MaxQueuedSeconds: 90}})
	rng := sim.NewRNG(seed)
	users := []string{"ann@x", "bob@x", "cyd@x"}
	outcomes := make([]string, offers)
	reasons := make([]string, offers) // of the offers shed on arrival
	for i := range outcomes {
		eng.RunUntil(eng.Now().Add(sim.Duration(rng.Exp(30))))
		reps := int(math.Exp(rng.Float64() * math.Log(2000))) // log-uniform over 1..2000
		direct := rng.Bool(0.1)
		before := hub.Journal.Len()
		b, err := svc.Submit(Request{Sub: userSubmission(users[rng.Intn(len(users))], reps), Origin: "service", Direct: direct})
		rec := d.records[i]
		var rej *admit.Rejection
		switch {
		case errors.As(err, &rej):
			if b != nil || direct {
				t.Fatalf("seed %d offer %d: shed with batch %v, direct %v", seed, i, b, direct)
			}
			reasons[i] = rej.Reason
			outcomes[i] = fmt.Sprintf("shed on arrival: %s (retry after %v)", rej.Reason, rej.RetryAfter)
		case err != nil:
			t.Fatalf("seed %d offer %d: %v", seed, i, err)
		case b != nil:
			if b != rec || !direct {
				t.Fatalf("seed %d offer %d: returned %p for record %p, direct %v", seed, i, b, rec, direct)
			}
			outcomes[i] = "batch (" + b.ID + ")"
		case direct:
			t.Fatalf("seed %d offer %d: a direct request was not expanded", seed, i)
		default:
			outcomes[i] = "queued"
			if shedOwnArrival(journalEvents(hub.Journal)[before:], d.records[:i], outcomes, rec) {
				t.Fatalf("seed %d offer %d: the door shed the arriving request, and Submit returned no rejection", seed, i)
			}
		}
	}
	for at := eng.Now(); svc.IngestDepth() > 0; at = at.Add(sim.Hour) {
		if at > sim.Time(sim.Day) {
			t.Fatalf("seed %d: %d requests still queued after a day", seed, svc.IngestDepth())
		}
		eng.RunUntil(at)
	}

	// Resolve each queued offer and collect what the journal should say
	// of each shed one: "<reason>: <n> replicates for <email> via service".
	var want []string
	accepted := map[string]bool{}
	for i, rec := range d.records {
		switch {
		case reasons[i] != "":
			if rec.ID != "" {
				t.Fatalf("seed %d offer %d: shed on arrival, then accepted as %s", seed, i, rec.ID)
			}
			want = append(want, shedPrefix(reasons[i], rec))
			continue
		case outcomes[i] == "queued" && rec.ID == "":
			outcomes[i] += ", shed"
			want = append(want, shedPrefix(admit.ReasonOverload, rec))
			continue
		case outcomes[i] == "queued":
			outcomes[i] += ", accepted (" + rec.ID + ")"
		}
		if accepted[rec.ID] {
			t.Fatalf("seed %d offer %d: batch %s accepted twice", seed, i, rec.ID)
		}
		accepted[rec.ID] = true
	}
	quota, overload := svc.Sheds()
	if len(accepted)+quota+overload != offers || len(svc.Batches()) != len(accepted) || len(want) != quota+overload {
		t.Fatalf("seed %d: %d accepted (%d batches) + %d quota + %d overload sheds (%d resolved as shed) != %d offered",
			seed, len(accepted), len(svc.Batches()), quota, overload, len(want), offers)
	}
	var got []string
	hub.Journal.Each(func(ev obs.Event) {
		if ev.Stage == obs.StageShed {
			prefix, _, _ := strings.Cut(ev.Detail, "; retry after")
			got = append(got, prefix)
		}
	})
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("seed %d: journaled sheds\n%s\nwant\n%s", seed, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	return outcomes
}

// shedPrefix is a shed event's detail up to its retry hint.
func shedPrefix(reason string, b *Batch) string {
	return fmt.Sprintf("%s: %d replicates for %s via %s", reason, b.Submission.Replicates, b.Submission.UserEmail, b.Origin)
}

// shedOwnArrival reports whether events, the journal while rec was
// submitted, shed rec itself: a shed event names it, and no request
// queued before it could have produced the same detail.
func shedOwnArrival(events []obs.Event, earlier []*Batch, outcomes []string, rec *Batch) bool {
	own := shedPrefix(admit.ReasonOverload, rec)
	for i, b := range earlier {
		if strings.HasPrefix(outcomes[i], "queued") && shedPrefix(admit.ReasonOverload, b) == own {
			return false
		}
	}
	for _, ev := range events {
		if prefix, _, _ := strings.Cut(ev.Detail, "; retry after"); ev.Stage == obs.StageShed && prefix == own {
			return true
		}
	}
	return false
}
