package gsbl

import (
	"testing"

	"lattice/internal/admit"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// recordedInput is one durable input the fake hook saw.
type recordedInput struct {
	at        sim.Time
	origin    string
	queued    bool
	scheduled bool
	due       sim.Time
	sub       workload.Submission
}

// fakeDurable captures durability-hook calls.
type fakeDurable struct{ inputs []recordedInput }

func (f *fakeDurable) Submission(at sim.Time, b *Batch, queued bool) {
	due, scheduled := b.Due()
	f.inputs = append(f.inputs, recordedInput{at: at, origin: b.Origin, queued: queued,
		scheduled: scheduled, due: due, sub: b.Submission})
}

// TestIngestDisabledIsSynchronous checks the zero-value config takes
// the pre-scale-out path: the submission schedules on arrival and the
// durable record is a plain (non-queued) input.
func TestIngestDisabledIsSynchronous(t *testing.T) {
	eng, sched, hub := testGrid(t)
	d := &fakeDurable{}
	svc := mustService(t, eng, sched, Options{Obs: hub, Durable: d})

	got, err := svc.Submit(Request{Sub: smallSubmission(3), Origin: "shard0/core"})
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || len(svc.Batches()) != 1 {
		t.Fatalf("disabled ingest did not accept synchronously: returned %v", got)
	}
	if len(got.Jobs) != 3 {
		t.Fatalf("batch has %d jobs, want 3", len(got.Jobs))
	}
	if len(d.inputs) != 1 || d.inputs[0].queued {
		t.Fatalf("durable record wrong: %+v", d.inputs)
	}
}

// TestIngestSerializesSubmissions checks the throughput model: each
// submission occupies the front door for its virtual cost, arrivals
// while busy queue FIFO, the depth tracks the backlog, and every
// enqueue is durably recorded at arrival with the Queued mark.
func TestIngestSerializesSubmissions(t *testing.T) {
	eng, sched, hub := testGrid(t)
	d := &fakeDurable{}
	svc := mustService(t, eng, sched, Options{Obs: hub, Durable: d,
		Ingest: IngestConfig{PerSubmissionSeconds: 10, PerReplicateSeconds: 1}})

	// Three 2-replicate submissions at t=0: each costs 12 virtual
	// seconds, so drains land at 12, 24, 36.
	for i := 0; i < 3; i++ {
		sub := smallSubmission(2)
		if b, err := svc.Submit(Request{Sub: sub, Origin: "shard0/core"}); err != nil || b != nil {
			t.Fatalf("queued Submit = (%v, %v), want (nil, nil)", b, err)
		}
	}
	if svc.IngestDepth() != 3 {
		t.Fatalf("depth = %d after three enqueues, want 3", svc.IngestDepth())
	}
	if len(svc.Batches()) != 0 {
		t.Fatal("batches created before the front door drained")
	}
	eng.RunUntil(sim.Time(13))
	if svc.IngestDepth() != 2 {
		t.Fatalf("depth = %d at t=13, want 2", svc.IngestDepth())
	}
	eng.RunUntil(sim.Time(100))
	if svc.IngestDepth() != 0 {
		t.Fatalf("depth = %d after drain, want 0", svc.IngestDepth())
	}
	if len(svc.Batches()) != 3 {
		t.Fatalf("%d batches after drain, want 3", len(svc.Batches()))
	}
	wantDrain := []sim.Time{12, 24, 36}
	for i, id := range svc.Batches() {
		if b, _ := svc.Batch(id); b.CreatedAt != wantDrain[i] {
			t.Errorf("accept %d at t=%v, want %v", i, b.CreatedAt, wantDrain[i])
		}
	}
	for i, in := range d.inputs {
		if !in.queued {
			t.Errorf("input %d not marked queued", i)
		}
		if in.at != 0 {
			t.Errorf("input %d recorded at t=%v, want arrival time 0", i, in.at)
		}
		if in.origin != "shard0/core" {
			t.Errorf("input %d origin %q", i, in.origin)
		}
	}
	if errs := svc.IngestErrors(); len(errs) != 0 {
		t.Fatalf("unexpected ingest errors: %v", errs)
	}
}

// TestScheduledArrivalIsOneRecord: a scheduled request is validated and
// recorded when it is scheduled, with its due time, and its delivery at
// that time — through the door, or on the spot without one — writes no
// second record. Arrivals counts it until then.
func TestScheduledArrivalIsOneRecord(t *testing.T) {
	for _, door := range []IngestConfig{{}, {PerSubmissionSeconds: 10}} {
		eng, sched, hub := testGrid(t)
		d := &fakeDurable{}
		svc := mustService(t, eng, sched, Options{Obs: hub, Durable: d, Ingest: door})
		b, err := svc.Submit(Request{Sub: smallSubmission(2), Origin: "shard0/core", Scheduled: true, Due: 30})
		if b != nil || err != nil {
			t.Fatalf("scheduled Submit = (%v, %v), want (nil, nil)", b, err)
		}
		want := recordedInput{origin: "shard0/core", queued: door.Enabled(), scheduled: true, due: 30, sub: smallSubmission(2)}
		if len(d.inputs) != 1 || d.inputs[0] != want {
			t.Fatalf("door %+v: recorded %+v, want %+v", door, d.inputs, want)
		}
		if svc.Arrivals() != 1 || svc.IngestDepth() != 0 {
			t.Fatalf("door %+v: %d arrivals and depth %d before the due time, want 1 and 0", door, svc.Arrivals(), svc.IngestDepth())
		}
		eng.RunUntil(29)
		if svc.Arrivals() != 1 || len(svc.Batches()) != 0 {
			t.Fatalf("door %+v: delivered early", door)
		}
		eng.RunUntil(sim.Time(sim.Hour))
		if svc.Arrivals() != 0 || len(svc.Batches()) != 1 {
			t.Fatalf("door %+v: %d arrivals, %d batches; want 0, 1", door, svc.Arrivals(), len(svc.Batches()))
		}
		if b, _ := svc.Batch(svc.Batches()[0]); b.CreatedAt != 30+sim.Time(door.PerSubmissionSeconds) {
			t.Fatalf("door %+v: accepted at %v, want %v", door, b.CreatedAt, 30+sim.Time(door.PerSubmissionSeconds))
		}
		if len(d.inputs) != 1 {
			t.Fatalf("door %+v: the delivery was recorded too: %+v", door, d.inputs)
		}
	}
}

// TestIngestValidationSynchronous checks a bad submission is rejected
// at enqueue time, before any durable record or queue state.
func TestIngestValidationSynchronous(t *testing.T) {
	eng, sched, hub := testGrid(t)
	d := &fakeDurable{}
	svc := mustService(t, eng, sched, Options{Obs: hub, Durable: d, Ingest: IngestConfig{PerSubmissionSeconds: 10}})

	bad := smallSubmission(1)
	bad.UserEmail = ""
	if _, err := svc.Submit(Request{Sub: bad, Origin: "shard0/core"}); err == nil {
		t.Fatal("invalid submission accepted")
	}
	if len(d.inputs) != 0 {
		t.Fatal("invalid submission durably recorded")
	}
	if svc.IngestDepth() != 0 {
		t.Fatal("invalid submission queued")
	}
}

// TestIngestIDPrefix checks prefixed batch identity survives the
// ingest path.
func TestIngestIDPrefix(t *testing.T) {
	eng, sched, hub := testGrid(t)
	svc := mustService(t, eng, sched, Options{Obs: hub, IDPrefix: "shard2-", Ingest: IngestConfig{PerSubmissionSeconds: 5}})
	if _, err := svc.Submit(Request{Sub: smallSubmission(1), Origin: "shard2/core"}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(10))
	if got := svc.Batches(); len(got) != 1 || got[0] != "shard2-batch-000001" {
		t.Fatalf("batches %v, want [shard2-batch-000001]", got)
	}
}

// TestDoorAllocs holds the door to what one queued submission costs on
// this fixture, measured: at enqueue, the request's record — the batch
// to be, which is also its own drain event (the admit door's fair-queue
// entry is a value in the controller's queue); from enqueue through
// drain, that plus the grid job; the cluster's running record is
// reused, and the batch ID, validate detail and job ID strings and the
// growth of the journal, the engine and the tables are amortized. With a
// queued request apart from its batch and a job list apart from both,
// the whole cycle cost 10 (fifo) and 11 (admit); when each engine event
// was an *event and each callback a closure, 22 and 23, and enqueue 3
// for both (the admit door's serve event is made when the door frees,
// not at enqueue). Before the cluster reused its running records and
// the admit queue held its entries by value, the cycle cost 4 (fifo)
// and 5 (admit), and the admit enqueue 2; before the scheduler stopped
// looking up the placement counter of the then obs-less fixture at every
// dispatch (its label list escaped each time), 3 for both. The race
// detector adds nothing.
func TestDoorAllocs(t *testing.T) {
	for _, tc := range []struct {
		name         string
		admit        admit.Config
		enqueue, all float64
	}{
		{"fifo", admit.Config{}, 1, 2},
		{"admit", admit.Config{MaxQueueDepth: 100}, 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, sched, hub := testGrid(t)
			svc := mustService(t, eng, sched, Options{Obs: hub,
				Ingest: IngestConfig{PerSubmissionSeconds: 1, PerReplicateSeconds: 0.25}, Admit: tc.admit})
			req := Request{Sub: smallSubmission(1), Origin: "shard0/core"}
			submit := func() { // the admit door sheds once 100 are queued
				if _, err := svc.Submit(req); err != nil {
					if _, shed := err.(*admit.Rejection); !shed {
						t.Fatal(err)
					}
				}
			}
			got := testing.AllocsPerRun(200, submit)
			if got > tc.enqueue {
				t.Errorf("enqueue: %.0f allocations, budget %.0f", got, tc.enqueue)
			}
			t.Logf("enqueue: %.0f allocations", got)
			eng.RunUntil(eng.Now().Add(sim.Hour))
			got = testing.AllocsPerRun(200, func() {
				submit()
				eng.RunUntil(eng.Now().Add(10))
			})
			if got > tc.all {
				t.Errorf("enqueue through drain: %.0f allocations, budget %.0f", got, tc.all)
			}
			t.Logf("enqueue through drain: %.0f allocations", got)
		})
	}
}
