package metasched

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"lattice/internal/grid/mds"
	"lattice/internal/lrm"
	"lattice/internal/lrm/cluster"
	"lattice/internal/obs"
	"lattice/internal/phylo"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

func TestStabilityAccessors(t *testing.T) {
	g := newGrid(t, DefaultConfig())
	if st, ok := g.sched.Stability("condor-pool"); !ok || st != 1 {
		t.Fatalf("fresh stability = %v, %v; want 1, true", st, ok)
	}
	if _, ok := g.sched.Stability("nope"); ok {
		t.Error("Stability reported a score for an unknown resource")
	}
}

func TestStabilityEWMALearning(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StabilityAlpha = 0.5
	g := newGrid(t, cfg)
	pool := g.sched.resources["condor-pool"]
	g.sched.observeStability(pool, false) // 1 → 0.5
	if st, _ := g.sched.Stability("condor-pool"); st != 0.5 {
		t.Errorf("after one failure stability = %v, want 0.5", st)
	}
	g.sched.observeStability(pool, true) // 0.5 → 0.75
	if st, _ := g.sched.Stability("condor-pool"); st != 0.75 {
		t.Errorf("after a success stability = %v, want 0.75", st)
	}
	// alpha = 0 disables learning entirely.
	g2 := newGrid(t, DefaultConfig())
	g2.sched.observeStability(g2.sched.resources["condor-pool"], false)
	if st, _ := g2.sched.Stability("condor-pool"); st != 1 {
		t.Errorf("alpha=0 moved stability to %v", st)
	}
}

func TestLearnedStabilityGatesLongJobs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = PolicyFull
	cfg.StabilityAlpha = 0.2
	g := newGrid(t, cfg)
	g.sched.SetPredictor(fixedPredictor(40 * 3600))
	// The statically-stable cluster has been observed failing: its
	// learned score sinks below the floor, so the gate must now treat
	// it as unstable and refuse to place long jobs anywhere.
	g.sched.resources["hpc-cluster"].stability = 0.3
	spec := workload.JobSpec{DataType: phylo.Nucleotide, SubstModel: "JC69",
		NumTaxa: 10, SeqLength: 100, SearchReps: 1, StartingTree: phylo.StartRandom}
	j := submit(g.sched, testJob("long0", 40*3600), &spec, nil)
	g.eng.RunUntil(sim.Time(30 * sim.Minute))
	if j.Status != StatusPending {
		t.Errorf("long job placed on %s despite learned instability everywhere", j.Resource())
	}
	// Restore the score: the job must flow to the cluster.
	g.sched.resources["hpc-cluster"].stability = 1
	g.eng.RunUntil(sim.Time(2 * sim.Hour))
	if j.Resource() != "hpc-cluster" {
		t.Errorf("recovered cluster not used; job on %q status %v", j.Resource(), j.Status)
	}
}

// TestDeadResourceRequeue silences a resource's MDS publications mid-run: the
// scheduler must detect the expired entry, requeue the in-flight jobs,
// and finish them elsewhere.
func TestDeadResourceRequeue(t *testing.T) {
	eng, sched, fastOut, _ := deadFastGrid(t)
	done := 0
	var jobs []*GridJob
	for i := 0; i < 3; i++ {
		// 4 h of reference work: ~1 h on fast, so still running when
		// the resource dies at t=30 min.
		j := submit(sched, testJob(fmt.Sprintf("j%d", i), 4*3600), nil, func(j *GridJob) {
			if j.Status == StatusCompleted {
				done++
			}
		})
		jobs = append(jobs, j)
	}
	eng.RunUntil(sim.Time(10 * sim.Minute))
	for i, j := range jobs {
		if j.Resource() != "fast" {
			t.Fatalf("job j%d placed on %q, want the fast cluster", i, j.Resource())
		}
	}
	eng.Schedule(20*sim.Minute, func() { fastOut.closed = true }) // the resource silently dies
	eng.RunUntil(sim.Time(2 * sim.Day))
	st := sched.Stats()
	if st.Requeued != 3 {
		t.Errorf("Requeued = %d, want 3", st.Requeued)
	}
	if done != 3 {
		t.Fatalf("%d of 3 jobs completed after the requeue", done)
	}
	for i, j := range jobs {
		if j.Resource() != "slow" {
			t.Errorf("job j%d finished on %q, want the surviving cluster", i, j.Resource())
		}
	}
}

// TestDeadResourceRequeuesInIDOrder: the jobs in flight on a dead
// resource are requeued in ID order, whatever order they were
// dispatched in and however completions reshuffled the resource's
// running list.
func TestDeadResourceRequeuesInIDOrder(t *testing.T) {
	eng, sched, fastOut, o := deadFastGrid(t)
	for _, id := range []string{"j3", "j5", "j0", "j4", "j1", "j2"} {
		work := 4 * 3600.0
		if id == "j0" {
			work = 60 // done before the death, out of the middle of the list
		}
		submit(sched, testJob(id, work), nil, nil)
	}
	eng.RunUntil(sim.Time(10 * sim.Minute))
	var running []string
	for _, j := range sched.resources["fast"].running {
		running = append(running, j.ID)
	}
	if want := []string{"j3", "j5", "j2", "j4", "j1"}; !slices.Equal(running, want) {
		t.Fatalf("fixture: fast runs %v, want %v", running, want)
	}
	eng.Schedule(20*sim.Minute, func() { fastOut.closed = true })
	eng.RunUntil(sim.Time(2 * sim.Hour))
	var requeued []string
	o.Journal.Each(func(ev obs.Event) {
		if ev.Stage == obs.StageRequeue && ev.Resource == "fast" {
			requeued = append(requeued, ev.Job)
		}
	})
	if want := []string{"j1", "j2", "j3", "j4", "j5"}; !slices.Equal(requeued, want) {
		t.Errorf("requeued %v, want ID order %v", requeued, want)
	}
}

// deadFastGrid is two 4-node PBS clusters, "fast" (speed 4) and "slow"
// (speed 1), under a scheduler without bundling that reports to the
// returned hub; closing the gate silences fast's MDS publications.
func deadFastGrid(t *testing.T) (*sim.Engine, *Scheduler, *gate, *obs.Obs) {
	t.Helper()
	eng := sim.NewEngine()
	o := obs.New(eng)
	idx, err := mds.NewIndex(eng, 5*sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, speed float64) *cluster.Cluster {
		c, err := cluster.New(eng, nil, nil, cluster.Config{
			Kind: "pbs", Name: name, Platform: lrm.LinuxX86,
			Nodes: []cluster.NodeClass{{Count: 4, Cores: 1, Speed: speed, MemoryMB: 8192}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	fast, slow := mk("fast", 4.0), mk("slow", 1.0)
	fastOut := &gate{dst: idx}
	if err := mds.StartProvider(eng, fastOut, fast, sim.Minute); err != nil {
		t.Fatal(err)
	}
	if err := mds.StartProvider(eng, idx, slow, sim.Minute); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.BundleTargetSeconds = 0
	sched := New(eng, idx, cfg, Options{Obs: o})
	if err := sched.Register(fast, 4.0); err != nil {
		t.Fatal(err)
	}
	if err := sched.Register(slow, 1.0); err != nil {
		t.Fatal(err)
	}
	return eng, sched, fastOut, o
}

// refusingLRM is a PBS-shaped resource whose gatekeeper rejects the
// first failN submissions (or, with failSync, accepts and at once
// fails them), then accepts and completes jobs normally.
type refusingLRM struct {
	eng      *sim.Engine
	name     string
	failN    int
	failSync bool
	runFor   sim.Duration
	jobs     map[string]*lrm.Job
	submits  int
	// onRefuse, when set, runs inside each refused Submit.
	onRefuse func()
}

func (f *refusingLRM) Name() string     { return f.name }
func (f *refusingLRM) Stats() lrm.Stats { return lrm.Stats{} }
func (f *refusingLRM) Info() lrm.Info {
	return lrm.Info{Name: f.name, Kind: "pbs", TotalCPUs: 4, FreeCPUs: 4 - len(f.jobs),
		NodeMemoryMB: 8192, Platforms: []lrm.Platform{lrm.LinuxX86}, Stable: true}
}

func (f *refusingLRM) Submit(j *lrm.Job) error {
	f.submits++
	if f.submits <= f.failN {
		if f.onRefuse != nil {
			f.onRefuse()
		}
		if f.failSync {
			j.Owner.Fail(j, f.eng.Now(), "node died at start")
			return nil
		}
		return fmt.Errorf("gatekeeper: submission refused")
	}
	f.jobs[j.ID] = j
	f.eng.Schedule(f.runFor, func() {
		if _, ok := f.jobs[j.ID]; !ok {
			return
		}
		delete(f.jobs, j.ID)
		if j.Owner != nil {
			j.Owner.Complete(j, f.eng.Now())
		}
	})
	return nil
}

func (f *refusingLRM) Cancel(id string) bool {
	if _, ok := f.jobs[id]; !ok {
		return false
	}
	delete(f.jobs, id)
	return true
}

// A refused submission retries on its own timer: 30 s doubling per
// further refusal, capped at 30 min, and never consumes the job.
func TestSubmitRetryBackoff(t *testing.T) {
	eng := sim.NewEngine()
	idx, _ := mds.NewIndex(eng, 5*sim.Minute)
	res := &refusingLRM{eng: eng, name: "flaky-gate", failN: 8, runFor: 10 * sim.Minute,
		jobs: make(map[string]*lrm.Job)}
	if err := mds.StartProvider(eng, idx, res, sim.Minute); err != nil {
		t.Fatal(err)
	}
	o := obs.New(eng)
	sched := New(eng, idx, DefaultConfig(), Options{Obs: o})
	if err := sched.Register(res, 1.0); err != nil {
		t.Fatal(err)
	}
	j := submit(sched, testJob("j1", 600), nil, nil)
	eng.RunUntil(sim.Time(6 * sim.Hour))
	if j.Status != StatusCompleted {
		t.Fatalf("job status %v after retries, want completed (fail reason %q)", j.Status, j.FailReason)
	}
	// Each backoff is journaled with its requeue: "… retry in Ns".
	var backoffs []string
	o.Journal.Each(func(ev obs.Event) {
		if _, d, ok := strings.Cut(ev.Detail, "retry in "); ok && ev.Stage == obs.StageRequeue {
			backoffs = append(backoffs, d)
		}
	})
	want := []string{"30s", "60s", "120s", "240s", "480s", "960s", "1800s", "1800s"}
	if !slices.Equal(backoffs, want) {
		t.Errorf("backoffs %v, want 30 s·2^k capped at 30 min: %v", backoffs, want)
	}
	st := sched.Stats()
	if st.SubmitRetries != 8 {
		t.Errorf("SubmitRetries = %d, want 8", st.SubmitRetries)
	}
	if res.submits != 9 {
		t.Errorf("resource saw %d submissions, want 9 (eight refused, one accepted)", res.submits)
	}
	if st.Failed != 0 {
		t.Errorf("submit refusals must not consume the job: stats %+v", st)
	}
}

// A job the resource fails inside Submit, which the report contract
// forbids but a resource may still do, re-queues itself at once. Every
// submission runs at its staging event, never inside a periodic scan,
// so no re-queue can land in the queue a scan is rebuilding (one once
// did and was overwritten, leaving the job pending forever).
func TestSynchronousFailureInsideScanStaysQueued(t *testing.T) {
	eng := sim.NewEngine()
	idx, _ := mds.NewIndex(eng, 5*sim.Minute)
	res := &refusingLRM{eng: eng, name: "flaky-gate", failN: 2, failSync: true, runFor: 10 * sim.Minute,
		jobs: make(map[string]*lrm.Job)}
	if err := mds.StartProvider(eng, idx, res, sim.Minute); err != nil {
		t.Fatal(err)
	}
	sched := New(eng, idx, DefaultConfig(), Options{})
	if err := sched.Register(res, 1.0); err != nil {
		t.Fatal(err)
	}
	// The first failure comes at the first staged submission, the
	// second at the one the first scan placed.
	j := submit(sched, testJob("j1", 600), nil, nil)
	eng.RunUntil(sim.Time(6 * sim.Hour))
	if j.Status != StatusCompleted {
		t.Fatalf("job status %v, submits=%d, len(pending)=%d; want completed",
			j.Status, res.submits, len(sched.pending))
	}
	if res.submits != 3 {
		t.Errorf("resource saw %d submissions, want 3", res.submits)
	}
	if st := sched.Stats(); st.Retries != 2 || st.SubmitRetries != 0 {
		t.Errorf("stats %+v, want 2 retries and no submit retries", st)
	}
}
