package gsbl

import (
	"runtime/debug"
	"testing"

	"lattice/internal/admit"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// recordedInput is one durable input the fake hook saw.
type recordedInput struct {
	at     sim.Time
	origin string
	queued bool
	sub    workload.Submission
}

// fakeDurable captures durability-hook calls.
type fakeDurable struct{ inputs []recordedInput }

func (f *fakeDurable) Submission(at sim.Time, origin string, queued bool, sub workload.Submission) {
	f.inputs = append(f.inputs, recordedInput{at: at, origin: origin, queued: queued, sub: sub})
}

// TestIngestDisabledIsSynchronous checks the zero-value config takes
// the pre-scale-out path: the submission schedules on arrival and the
// durable record is a plain (non-queued) input.
func TestIngestDisabledIsSynchronous(t *testing.T) {
	eng, sched := testGrid(t)
	d := &fakeDurable{}
	svc := mustService(t, eng, sched, Options{Durable: d})

	var got *Batch
	ret, err := svc.Submit(Request{Sub: smallSubmission(3), Origin: "shard0/core", OnAccepted: func(b *Batch, err error) {
		if err != nil {
			t.Fatalf("onAccepted error: %v", err)
		}
		got = b
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || ret != got {
		t.Fatalf("disabled ingest did not accept synchronously: returned %v, callback got %v", ret, got)
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
	eng, sched := testGrid(t)
	d := &fakeDurable{}
	svc := mustService(t, eng, sched, Options{Durable: d,
		Ingest: IngestConfig{PerSubmissionSeconds: 10, PerReplicateSeconds: 1}})

	var acceptedAt []sim.Time
	onAccepted := func(b *Batch, err error) {
		if err != nil {
			t.Fatalf("deferred accept error: %v", err)
		}
		acceptedAt = append(acceptedAt, eng.Now())
	}
	// Three 2-replicate submissions at t=0: each costs 12 virtual
	// seconds, so drains land at 12, 24, 36.
	for i := 0; i < 3; i++ {
		sub := smallSubmission(2)
		if b, err := svc.Submit(Request{Sub: sub, Origin: "shard0/core", OnAccepted: onAccepted}); err != nil || b != nil {
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
	if len(acceptedAt) != 3 {
		t.Fatalf("%d accepts, want 3", len(acceptedAt))
	}
	wantDrain := []sim.Time{12, 24, 36}
	for i, at := range acceptedAt {
		if at != wantDrain[i] {
			t.Errorf("accept %d at t=%v, want %v", i, at, wantDrain[i])
		}
	}
	if len(svc.Batches()) != 3 {
		t.Fatalf("%d batches after drain, want 3", len(svc.Batches()))
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

// TestIngestValidationSynchronous checks a bad submission is rejected
// at enqueue time, before any durable record or queue state.
func TestIngestValidationSynchronous(t *testing.T) {
	eng, sched := testGrid(t)
	d := &fakeDurable{}
	svc := mustService(t, eng, sched, Options{Durable: d, Ingest: IngestConfig{PerSubmissionSeconds: 10}})

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
	eng, sched := testGrid(t)
	svc := mustService(t, eng, sched, Options{IDPrefix: "shard2-", Ingest: IngestConfig{PerSubmissionSeconds: 5}})
	var got *Batch
	if _, err := svc.Submit(Request{Sub: smallSubmission(1), Origin: "shard2/core", OnAccepted: func(b *Batch, err error) {
		got = b
	}}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(10))
	if got == nil || got.ID != "shard2-batch-000001" {
		t.Fatalf("batch ID = %+v, want shard2-batch-000001", got)
	}
}

// raceBuild reports whether the test binary was built with -race, whose
// runtime allocates on paths that otherwise do not.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestDoorAllocs holds the door to the allocations it cost before
// Submit replaced the per-door entry points: one queued submission,
// measured at the parent commit on this fixture — at enqueue (the
// queued request, the drain closure and the engine event; the admit
// door adds its queue entry and serve closure) and from enqueue
// through drain (46 and 47; 55 and 56 under the race detector).
func TestDoorAllocs(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		admit                 admit.Config
		enqueue, all, allRace float64
	}{
		{"fifo", admit.Config{}, 3, 46, 55},
		{"admit", admit.Config{MaxQueueDepth: 100}, 6, 47, 56},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, sched := testGrid(t)
			svc := mustService(t, eng, sched, Options{
				Ingest: IngestConfig{PerSubmissionSeconds: 1, PerReplicateSeconds: 0.25}, Admit: tc.admit})
			req := Request{Sub: smallSubmission(1), Origin: "shard0/core"}
			submit := func() {
				if _, err := svc.Submit(req); err != nil {
					t.Fatal(err)
				}
			}
			if got := testing.AllocsPerRun(200, submit); got > tc.enqueue {
				t.Errorf("enqueue: %.0f allocations, was %.0f", got, tc.enqueue)
			}
			eng.RunUntil(eng.Now().Add(sim.Hour))
			want := tc.all
			if raceBuild() {
				want = tc.allRace
			}
			if got := testing.AllocsPerRun(200, func() {
				submit()
				eng.RunUntil(eng.Now().Add(10))
			}); got > want {
				t.Errorf("enqueue through drain: %.0f allocations, was %.0f", got, want)
			}
		})
	}
}
