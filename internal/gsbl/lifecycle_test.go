package gsbl

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
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
			eng, sched, hub := testGrid(t)
			d := &recordingDurable{}
			tc.opts.Durable = d
			tc.opts.Obs = hub
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

// TestOutboxDigests sends 15 001 mails of all three kinds through a
// service — 5 000 batches, every job of fail@example.edu's batches
// failed for good — and holds Sent and SentTo to the SHA-256 digests the
// outbox gave when it was a store of its own, filled as each mail was
// sent: the fold over the journal must give the same mails, byte for
// byte, in the same order.
func TestOutboxDigests(t *testing.T) {
	_, empty := testService(t)
	if got := empty.Sent(); got == nil || len(got) != 0 {
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

	digest := func(mails []Notification) string {
		h := sha256.New()
		for _, n := range mails {
			fmt.Fprintf(h, "%v|%s|%s|%s\n", float64(n.At), n.To, n.Subject, n.Body)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	for _, tc := range []struct {
		to     string // "" reads Sent
		mails  int
		digest string
	}{
		{"", 15_001, "8db2966783ac47584da08aa51fe500945e7c97b551dc1e7766428d5d919df485"},
		{"ok@example.edu", 3_334, "bfd1ca6d9f34377f7b3fbd4f90fb6d3af5b971d319cfe227d67ccd22600ff304"},
		{"fail@example.edu", 8_335, "38afe5b9d870abd7e56d3c31d36a35a7cc413f583da0f6067e693953fa66578d"},
		{"other@example.org", 3_332, "3a12c53b00a0b36578aea798ec8ee6d706268c4d75ff430cd3319ce4a398c757"},
		{"nobody@example.edu", 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	} {
		got := svc.Sent()
		if tc.to != "" {
			got = svc.SentTo(tc.to)
		}
		if d := digest(got); len(got) != tc.mails || d != tc.digest {
			t.Errorf("outbox of %q: %d mails, digest %s; want %d, %s", tc.to, len(got), d, tc.mails, tc.digest)
		}
	}
}

// TestSentToBytesDoNotGrowWithTheJournal: reading one recipient's mail
// folds the journal in place, so it costs the same bytes however many
// other events the journal holds. SentTo once copied the whole journal
// on every call: the 100 000 unrelated events recorded here cost it
// 8.8 MB more.
func TestSentToBytesDoNotGrowWithTheJournal(t *testing.T) {
	eng, sched, hub := testGrid(t)
	svc := mustService(t, eng, sched, Options{Obs: hub})
	for _, user := range []string{"mine@example.edu", "other@example.edu"} {
		if _, err := svc.Submit(direct(userSubmission(user, 2))); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(eng.Now().Add(sim.Day))
	sentTo := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mails := svc.SentTo("mine@example.edu")
		runtime.ReadMemStats(&after)
		if len(mails) != 2 {
			t.Fatalf("SentTo returned %d mails, want submitted and complete", len(mails))
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	short := sentTo()
	for i := 0; i < 100_000; i++ {
		hub.Record("", "", obs.StageFault, "hpc", "outage: resource down")
	}
	if long := sentTo(); long > short {
		t.Errorf("SentTo allocates %d bytes over a journal of %d events, %d over the same mail among %d events",
			short, hub.Journal.Len()-100_000, long, hub.Journal.Len())
	}
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
					n, journalEvents(o.Journal), len(d.records), len(svc.Batches()))
			}
		})
	}
}
