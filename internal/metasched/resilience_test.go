package metasched

import (
	"fmt"
	"testing"

	"lattice/internal/grid/mds"
	"lattice/internal/lrm"
	"lattice/internal/lrm/cluster"
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
	g.sched.observeStability("condor-pool", false) // 1 → 0.5
	if st, _ := g.sched.Stability("condor-pool"); st != 0.5 {
		t.Errorf("after one failure stability = %v, want 0.5", st)
	}
	g.sched.observeStability("condor-pool", true) // 0.5 → 0.75
	if st, _ := g.sched.Stability("condor-pool"); st != 0.75 {
		t.Errorf("after a success stability = %v, want 0.75", st)
	}
	// alpha = 0 disables learning entirely.
	g2 := newGrid(t, DefaultConfig())
	g2.sched.observeStability("condor-pool", false)
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
	j, err := g.sched.Submit(jobDesc("long0", 40*3600), &spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.eng.RunUntil(sim.Time(30 * sim.Minute))
	if j.Status != StatusPending {
		t.Errorf("long job placed on %s despite learned instability everywhere", j.Resource)
	}
	// Restore the score: the job must flow to the cluster.
	g.sched.resources["hpc-cluster"].stability = 1
	g.eng.RunUntil(sim.Time(2 * sim.Hour))
	if j.Resource != "hpc-cluster" {
		t.Errorf("recovered cluster not used; job on %q status %v", j.Resource, j.Status)
	}
}

// TestDeadResourceRequeue kills a resource's MDS provider mid-run: the
// scheduler must detect the expired entry, requeue the in-flight jobs,
// and finish them elsewhere.
func TestDeadResourceRequeue(t *testing.T) {
	eng := sim.NewEngine()
	idx, err := mds.NewIndex(eng, 5*sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, speed float64) *cluster.Cluster {
		c, err := cluster.New(eng, cluster.Config{
			Kind: "pbs", Name: name, Platform: lrm.LinuxX86,
			Nodes: []cluster.NodeClass{{Count: 4, Cores: 1, Speed: speed, MemoryMB: 8192}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	fast, slow := mk("fast", 4.0), mk("slow", 1.0)
	pFast, err := mds.StartProvider(eng, idx, fast, sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mds.StartProvider(eng, idx, slow, sim.Minute); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.BundleTargetSeconds = 0
	sched := New(eng, idx, cfg, Options{})
	if err := sched.Register(fast, 4.0); err != nil {
		t.Fatal(err)
	}
	if err := sched.Register(slow, 1.0); err != nil {
		t.Fatal(err)
	}
	done := 0
	for i := 0; i < 3; i++ {
		// 4 h of reference work: ~1 h on fast, so still running when
		// the resource dies at t=30 min.
		if _, err := sched.Submit(jobDesc(fmt.Sprintf("j%d", i), 4*3600), nil, func(j *GridJob) {
			if j.Status == StatusCompleted {
				done++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(sim.Time(10 * sim.Minute))
	for i := 0; i < 3; i++ {
		j := sched.jobs[fmt.Sprintf("j%d", i)]
		if j.Resource != "fast" {
			t.Fatalf("job j%d placed on %q, want the fast cluster", i, j.Resource)
		}
	}
	eng.Schedule(20*sim.Minute, pFast.Stop) // the resource silently dies
	eng.RunUntil(sim.Time(2 * sim.Day))
	st := sched.Stats()
	if st.Requeued != 3 {
		t.Errorf("Requeued = %d, want 3", st.Requeued)
	}
	if done != 3 {
		t.Fatalf("%d of 3 jobs completed after the requeue", done)
	}
	for i := 0; i < 3; i++ {
		j := sched.jobs[fmt.Sprintf("j%d", i)]
		if j.Resource != "slow" {
			t.Errorf("job j%d finished on %q, want the surviving cluster", i, j.Resource)
		}
	}
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
	// onRefuse, when set, runs inside each refused Submit — i.e.
	// synchronously inside the scheduler's dispatch.
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
			j.OnFail(f.eng.Now(), "node died at start")
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
		if j.OnComplete != nil {
			j.OnComplete(f.eng.Now())
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

// backoffLog records the scheduler's durable backoff decisions.
type backoffLog struct{ backoffs []sim.Duration }

func (*backoffLog) EWMA(sim.Time, string, float64) {}
func (l *backoffLog) Backoff(_ sim.Time, _, _ string, _ int, d sim.Duration) {
	l.backoffs = append(l.backoffs, d)
}

// A refused submission retries on its own timer: 30 s doubling per
// further refusal, capped at 30 min, and never consumes the job.
func TestSubmitRetryBackoff(t *testing.T) {
	eng := sim.NewEngine()
	idx, _ := mds.NewIndex(eng, 5*sim.Minute)
	res := &refusingLRM{eng: eng, name: "flaky-gate", failN: 8, runFor: 10 * sim.Minute,
		jobs: make(map[string]*lrm.Job)}
	if _, err := mds.StartProvider(eng, idx, res, sim.Minute); err != nil {
		t.Fatal(err)
	}
	var log backoffLog
	sched := New(eng, idx, DefaultConfig(), Options{Durable: &log})
	if err := sched.Register(res, 1.0); err != nil {
		t.Fatal(err)
	}
	j, err := sched.Submit(jobDesc("j1", 600), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(6 * sim.Hour))
	if j.Status != StatusCompleted {
		t.Fatalf("job status %v after retries, want completed (fail reason %q)", j.Status, j.FailReason)
	}
	want := []sim.Duration{30, 60, 120, 240, 480, 960, 30 * sim.Minute, 30 * sim.Minute}
	if fmt.Sprint(log.backoffs) != fmt.Sprint(want) {
		t.Errorf("backoffs %v, want 30 s·2^k capped at 30 min: %v", log.backoffs, want)
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

// A job the resource fails synchronously inside Submit re-queues
// itself at once. When that happens *inside* a periodic scan, the
// re-queue lands behind the entries the scan is ranging over and must
// survive the scan's queue rebuild (it used to be overwritten, leaving
// the job pending forever with an empty queue).
func TestSynchronousFailureInsideScanStaysQueued(t *testing.T) {
	eng := sim.NewEngine()
	idx, _ := mds.NewIndex(eng, 5*sim.Minute)
	res := &refusingLRM{eng: eng, name: "flaky-gate", failN: 2, failSync: true, runFor: 10 * sim.Minute,
		jobs: make(map[string]*lrm.Job)}
	if _, err := mds.StartProvider(eng, idx, res, sim.Minute); err != nil {
		t.Fatal(err)
	}
	sched := New(eng, idx, DefaultConfig(), Options{})
	if err := sched.Register(res, 1.0); err != nil {
		t.Fatal(err)
	}
	// The first failure happens inside Submit, the second inside the
	// first scan.
	j, err := sched.Submit(jobDesc("j1", 600), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
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
