package metasched

import (
	"testing"

	"lattice/internal/grid/mds"
	"lattice/internal/lrm"
	"lattice/internal/phylo"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// holdingLRM keeps every job handed to it and reports nothing on its
// own: the test plays the resource's reports. Like the fault injector's
// wrapper, Submit replaces each job's Owner with a relay to the owner
// it found, so a retry that copied the first job's Owner would report
// through the first resource's relay.
type holdingLRM struct {
	name, kind string
	jobs       []*lrm.Job
	cancelled  []string
}

// relay stands between a held job and the owner it was submitted with.
type relay struct{ inner lrm.Owner }

func (r *relay) Complete(j *lrm.Job, at sim.Time)            { r.inner.Complete(j, at) }
func (r *relay) Fail(j *lrm.Job, at sim.Time, reason string) { r.inner.Fail(j, at, reason) }

func (h *holdingLRM) Name() string     { return h.name }
func (h *holdingLRM) Stats() lrm.Stats { return lrm.Stats{} }
func (h *holdingLRM) Info() lrm.Info {
	return lrm.Info{Name: h.name, Kind: h.kind, TotalCPUs: 4, FreeCPUs: 4,
		NodeMemoryMB: 4096, Platforms: []lrm.Platform{lrm.LinuxX86}, Stable: true}
}

func (h *holdingLRM) Submit(j *lrm.Job) error {
	j.Owner = &relay{inner: j.Owner}
	h.jobs = append(h.jobs, j)
	return nil
}

func (h *holdingLRM) Cancel(id string) bool {
	h.cancelled = append(h.cancelled, id)
	return true
}

// TestRedispatchOwnsItsJob moves one job from a first resource to a
// second: the first publishes once and then falls silent, so its MDS
// entry expires and the job is requeued onto the second, which starts
// publishing only after the first placement. In both directions —
// BOINC then cluster, cluster then BOINC — the second dispatch hands
// over an lrm.Job of its own: a different record with the same
// description, its own Owner (not the first resource's relay) and the
// DelayBound its own resource's kind calls for, while the first job
// keeps what its dispatch gave it. The first attempt's late reports are
// ignored; the second's completes the job, which then keeps only the
// resource of the retry, not its record.
func TestRedispatchOwnsItsJob(t *testing.T) {
	const est = 3600.0
	// A BOINC deadline at speed 1: 3× the estimate with the per-job
	// overhead, at least six hours.
	boincBound := max(sim.Duration((est+PerJobOverheadSeconds)*boincDeadlineSlack), 6*sim.Hour)
	for _, tc := range []struct {
		name                string
		firstKind, nextKind string
		firstBound, nextBnd sim.Duration
	}{
		{"boinc then cluster", "boinc", "pbs", boincBound, 0},
		{"cluster then boinc", "pbs", "boinc", 0, boincBound},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			idx, err := mds.NewIndex(eng, 5*sim.Minute)
			if err != nil {
				t.Fatal(err)
			}
			first := &holdingLRM{name: "first", kind: tc.firstKind}
			next := &holdingLRM{name: "next", kind: tc.nextKind}
			sched := New(eng, idx, DefaultConfig(), Options{})
			sched.SetPredictor(fixedPredictor(est))
			for _, r := range []*holdingLRM{first, next} {
				if err := sched.Register(r, 1); err != nil {
					t.Fatal(err)
				}
			}
			idx.Publish(first.Info())
			spec := workload.JobSpec{DataType: phylo.Nucleotide, SubstModel: "JC69",
				NumTaxa: 10, SeqLength: 100, SearchReps: 1, StartingTree: phylo.StartRandom}
			j := submit(sched, testJob("moved", est), &spec, nil)
			eng.RunUntil(eng.Now()) // its input stages in no time
			if len(first.jobs) != 1 || j.Resource() != "first" {
				t.Fatalf("job on %q, first resource holds %d jobs; want it placed on first", j.Resource(), len(first.jobs))
			}
			if err := mds.StartProvider(eng, idx, next, sim.Minute); err != nil {
				t.Fatal(err)
			}
			eng.RunUntil(sim.Time(10 * sim.Minute))
			if len(next.jobs) != 1 || j.Resource() != "next" || j.Attempts != 2 {
				t.Fatalf("job on %q after %d attempts, next holds %d jobs; want it requeued onto next",
					j.Resource(), j.Attempts, len(next.jobs))
			}
			if len(first.cancelled) != 1 || first.cancelled[0] != j.ID {
				t.Errorf("first resource saw cancels %q, want [%s]", first.cancelled, j.ID)
			}
			a, b := first.jobs[0], next.jobs[0]
			if a == b {
				t.Fatal("the retry handed over the first dispatch's lrm.Job")
			}
			if a.ID != b.ID || a.Batch != b.Batch || a.Work != b.Work || a.MemoryMB != b.MemoryMB ||
				a.EstimatedRefSeconds != b.EstimatedRefSeconds {
				t.Errorf("retry describes another job: first %+v, retry %+v", *a, *b)
			}
			ra, rb := a.Owner.(*relay), b.Owner.(*relay)
			if rb.inner == ra || rb.inner == ra.inner {
				t.Error("the retry reports through the first dispatch's owner")
			}
			if a.DelayBound != tc.firstBound || b.DelayBound != tc.nextBnd {
				t.Errorf("delay bounds %v then %v, want %v then %v", a.DelayBound, b.DelayBound, tc.firstBound, tc.nextBnd)
			}

			// The first copy limps home after the requeue: ignored.
			a.Owner.Complete(a, eng.Now())
			a.Owner.Fail(a, eng.Now(), "late failure")
			eng.RunUntil(sim.Time(11 * sim.Minute))
			if j.Status != StatusRunning || j.Resource() != "next" {
				t.Fatalf("a stale report moved the job to %v on %q", j.Status, j.Resource())
			}
			b.Owner.Complete(b, eng.Now())
			eng.RunUntil(sim.Time(12 * sim.Minute))
			if j.Status != StatusCompleted || j.Resource() != "next" || j.Attempts != 2 {
				t.Errorf("job %v on %q after %d attempts, want completed on next after 2", j.Status, j.Resource(), j.Attempts)
			}
			if j.cur != &j.first {
				t.Error("the ended job still holds its retry's record")
			}
			if st := sched.Stats(); st.Completed != 1 || st.Requeued != 1 || st.Retries != 0 {
				t.Errorf("stats %+v, want one completion after one requeue", st)
			}
		})
	}
}
