package gsbl

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"lattice/internal/admit"
	"lattice/internal/metasched"
	"lattice/internal/obs"
	"lattice/internal/sim"
)

// recordingDurable keeps every record the durability hook is handed.
type recordingDurable struct{ records []*Batch }

func (d *recordingDurable) Submission(_ sim.Time, b *Batch, _ bool) {
	d.records = append(d.records, b)
}

// TestRequestLifeCycle submits requests down every path a request can
// take — direct, behind the FIFO door, through the admit door, shed for
// quota, shed for overflow, scheduled — each with a recording hook, and
// holds every one to its life cycle: the hook gets each request's
// record once, Submit returns the record when it expanded it, the
// *admit.Rejection when the door shed it on arrival and nothing when it
// is pending, a shed request never becomes a batch, and once the engine
// has run every pending request is a batch or shed.
func TestRequestLifeCycle(t *testing.T) {
	door := IngestConfig{PerSubmissionSeconds: 10}
	for _, tc := range []struct {
		name    string
		opts    Options
		req     Request
		n       int
		pending bool   // the requests are not expanded when Submit returns
		shed    string // the reason some of them are shed for, "" for none
	}{
		{"direct", Options{Ingest: door}, Request{Direct: true}, 3, false, ""},
		{"fifo", Options{Ingest: door}, Request{}, 3, true, ""},
		{"admit", Options{Ingest: door, Admit: admit.Config{MaxQueueDepth: 100}}, Request{}, 3, true, ""},
		{"quota shed", Options{Ingest: door, Admit: admit.Config{UserRatePerHour: 1}}, Request{}, 3, true, admit.ReasonQuota},
		{"overflow shed", Options{Ingest: door, Admit: admit.Config{MaxQueueDepth: 1}}, Request{}, 4, true, admit.ReasonOverload},
		{"scheduled", Options{Ingest: door}, Request{Scheduled: true, Due: 30}, 3, true, ""},
		{"scheduled direct", Options{}, Request{Direct: true, Scheduled: true, Due: 30}, 3, true, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, sched := testGrid(t)
			d := &recordingDurable{}
			tc.opts.Durable = d
			svc := mustService(t, eng, sched, tc.opts)
			shed := make([]bool, tc.n) // returned as shed on arrival
			returned := 0
			for i := range shed {
				r := tc.req
				r.Sub, r.Origin = smallSubmission(1), "service"
				b, err := svc.Submit(r)
				if len(d.records) != i+1 {
					t.Fatalf("request %d: the hook has %d records", i, len(d.records))
				}
				rec := d.records[i]
				var rej *admit.Rejection
				switch {
				case errors.As(err, &rej):
					shed[i] = true
					returned++
					if b != nil || rej.Reason != tc.shed {
						t.Errorf("request %d: shed with batch %v and reason %q, want nil and %q", i, b, rej.Reason, tc.shed)
					}
				case err != nil:
					t.Fatal(err)
				case tc.pending && b != nil:
					t.Fatalf("request %d: Submit returned %v for a pending request", i, b)
				case !tc.pending && b != rec:
					t.Fatalf("request %d: Submit returned %p, not its record %p", i, b, rec)
				}
			}
			eng.RunUntil(sim.Time(sim.Day))

			q, o := svc.Sheds()
			// The queue holds one user's equal requests, so the door sheds
			// each arriving one: every shed is returned.
			if (q+o > 0) != (tc.shed != "") || len(svc.Batches()) != tc.n-q-o || returned != q+o {
				t.Fatalf("%d+%d shed (%d on arrival), %d batches of %d requests", q, o, returned, len(svc.Batches()), tc.n)
			}
			for i, rec := range d.records {
				if rec.scheduled || (shed[i] && rec.ID != "") {
					t.Errorf("request %d: delivered record still scheduled %v, or shed and accepted as %q", i, rec.scheduled, rec.ID)
				}
				if accepted := slices.Contains(svc.Batches(), rec.ID); accepted != (rec.ID != "") {
					t.Errorf("request %d: record ID %q, in Batches %v", i, rec.ID, accepted)
				}
			}
		})
	}
}

// TestOutboxMatchesFlatOracle sends over 13 000 mails of all three
// kinds through a service — enough for the whole 64 → 4 096 chunk ramp
// and two full 4 096-mail chunks — and holds Sent and SentTo to a flat
// []mail the test derives from the journal: a submitted mail at each
// batch's validate event, a job-failure mail at each job's fail event,
// and a completion mail at the terminal event that ends each batch.
func TestOutboxMatchesFlatOracle(t *testing.T) {
	if got := (&Mailer{}).Sent(); got == nil || len(got) != 0 {
		t.Fatalf("empty outbox: Sent() = %#v, want a non-nil empty slice", got)
	}
	eng := sim.NewEngine()
	hub := obs.New(eng)
	// Every attempt of a job of fail@example.edu's batches fails, so the
	// scheduler fails the job for good after its retries.
	sched := gridOn(t, eng, metasched.Options{Obs: hub}, func(id string) bool { return strings.HasPrefix(id, "fail_") })
	svc := mustService(t, eng, sched, Options{Obs: hub})
	users := []string{"ok@example.edu", "fail@example.edu", "other@example.org"}
	for i := 0; i < 5000; i++ {
		user := users[i%len(users)]
		reps := 1
		if i%len(users) == 1 {
			reps = 3
		}
		if _, err := svc.Submit(direct(userSubmission(user, reps))); err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			eng.RunUntil(eng.Now().Add(sim.Hour))
		}
	}
	// failing spaces its failures a second apart, so the last of the
	// 30 000 failing attempts ends months in.
	eng.RunUntil(eng.Now().Add(365 * sim.Day))

	var flat []mail
	left := make(map[string]int)
	failures := 0
	for _, ev := range hub.Journal.Events() {
		b, ok := svc.Batch(ev.Batch)
		if !ok {
			continue
		}
		switch {
		case ev.Stage == obs.StageValidate:
			flat = append(flat, mail{at: ev.At, kind: mailSubmitted, b: b})
			left[b.ID] = len(b.Jobs)
		case ev.Stage == obs.StageFail, ev.Stage == obs.StageComplete:
			if ev.Stage == obs.StageFail {
				i := slices.IndexFunc(b.Jobs, func(j *metasched.GridJob) bool { return j.ID == ev.Job })
				flat = append(flat, mail{at: ev.At, kind: mailJobFailed, b: b, j: b.Jobs[i]})
				failures++
			}
			if left[b.ID]--; left[b.ID] == 0 {
				flat = append(flat, mail{at: ev.At, kind: mailComplete, b: b})
			}
		}
	}
	// 64 + 128 + … + 4 096 + 4 096 = 12 224 mails fill eight chunks.
	if len(flat) <= 12_224 || failures == 0 || len(svc.Batches()) != 5000 {
		t.Fatalf("fixture: %d mails (%d job failures) for %d batches", len(flat), failures, len(svc.Batches()))
	}
	t.Logf("%d mails, %d of them job failures, in %d chunks", len(flat), failures, len(svc.mailer.chunks))
	render := func(to string) []Notification {
		out := []Notification{}
		for i := range flat {
			if to == "" || flat[i].b.Submission.UserEmail == to {
				out = append(out, flat[i].render())
			}
		}
		return out
	}
	if got, want := svc.mailer.Sent(), render(""); !slices.Equal(got, want) {
		t.Fatalf("Sent(): %d mails, the oracle %d; first difference at %d", len(got), len(want), firstDiff(got, want))
	}
	for _, to := range append(users, "nobody@example.edu") {
		got, want := svc.mailer.SentTo(to), render(to)
		if len(got) != len(want) || (len(want) > 0 && !slices.Equal(got, want)) {
			t.Errorf("SentTo(%q): %d mails, the oracle %d; first difference at %d", to, len(got), len(want), firstDiff(got, want))
		}
	}
	if n := len(svc.mailer.chunks); n < 9 || cap(svc.mailer.chunks[n-2]) != maxMailChunk || cap(svc.mailer.chunks[n-3]) != maxMailChunk {
		t.Errorf("%d chunks: the outbox never reached two full %d-mail chunks", n, maxMailChunk)
	}
}

// firstDiff is the first index at which a and b differ.
func firstDiff(a, b []Notification) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestDoorRefusesUnpriceableSpecs: a spec whose memory requirement
// overflows an int (here 2^62 gamma categories, 2^30 on a 32-bit
// target) is refused by Submit itself — direct or queued — before
// anything is journaled, recorded or queued; it once passed validation
// and failed in expansion, leaving a validate event with no terminal,
// or a "queued" answer that never expanded. The door is the one
// refusal point: a request it accepts always expands.
func TestDoorRefusesUnpriceableSpecs(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  Request
	}{
		{"direct", Request{Direct: true}},
		{"queued", Request{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			o := obs.New(eng)
			sched := gridOn(t, eng, metasched.Options{Obs: o}, nil)
			d := &recordingDurable{}
			svc := mustService(t, eng, sched, Options{Obs: o, Durable: d, Ingest: IngestConfig{PerSubmissionSeconds: 10}})
			r := tc.req
			r.Sub, r.Origin = smallSubmission(1), "service"
			r.Sub.Spec.NumTaxa, r.Sub.Spec.SeqLength, r.Sub.Spec.NumRateCats = 50, 1000, math.MaxInt/2+1
			if b, err := svc.Submit(r); err == nil {
				t.Fatalf("Submit accepted the spec (batch %v)", b)
			}
			eng.RunUntil(sim.Time(sim.Day))
			if n := o.Journal.Len(); n != 0 || len(d.records) != 0 || len(svc.Batches()) != 0 {
				t.Errorf("refused spec left %d journal events (%v), %d records, %d batches",
					n, o.Journal.Events(), len(d.records), len(svc.Batches()))
			}
		})
	}
}
