package metasched

import (
	"fmt"
	"testing"

	"lattice/internal/boinc"
	"lattice/internal/grid/mds"
	"lattice/internal/lrm"
	"lattice/internal/lrm/cluster"
	"lattice/internal/phylo"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// grid is a small test federation.
type grid struct {
	eng   *sim.Engine
	idx   *mds.Index
	sched *Scheduler
	pool  *cluster.Cluster
	hpc   *cluster.Cluster
}

// newGrid builds one Condor pool (unstable, speed 1) and one PBS
// cluster (stable, speed 2) publishing into a shared index.
func newGrid(t *testing.T, cfg Config) *grid {
	t.Helper()
	eng := sim.NewEngine()
	idx, err := mds.NewIndex(eng, 5*sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := cluster.New(eng, sim.NewRNG(1), nil, cluster.Config{
		Kind: "condor", Name: "condor-pool", Platform: lrm.LinuxX86,
		Nodes: []cluster.NodeClass{{Count: 8, Cores: 1, Speed: 1.0, MemoryMB: 2048,
			MeanOwnerAway: 5 * sim.Hour, MeanOwnerBusy: 30 * sim.Minute}},
	})
	if err != nil {
		t.Fatal(err)
	}
	hpc, err := cluster.New(eng, nil, nil, cluster.Config{
		Kind: "pbs", Name: "hpc-cluster", Platform: lrm.LinuxX86,
		Nodes: []cluster.NodeClass{{Count: 8, Cores: 1, Speed: 2.0, MemoryMB: 8192}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mds.StartProvider(eng, idx, pool, sim.Minute); err != nil {
		t.Fatal(err)
	}
	if err := mds.StartProvider(eng, idx, hpc, sim.Minute); err != nil {
		t.Fatal(err)
	}
	sched := New(eng, idx, cfg, Options{})
	if err := sched.Register(acceptsAll{pool, t}, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := sched.Register(hpc, 2.0); err != nil {
		t.Fatal(err)
	}
	return &grid{eng: eng, idx: idx, sched: sched, pool: pool, hpc: hpc}
}

// acceptsAll registers a pool so that every test on the grid pins what
// the pool's own Submit checks assume: a pool refuses a job it could
// never run (more memory than any machine), and the scheduler's
// eligibility check never offers it one.
type acceptsAll struct {
	lrm.LRM
	t *testing.T
}

func (a acceptsAll) Submit(j *lrm.Job) error {
	err := a.LRM.Submit(j)
	if err != nil {
		a.t.Errorf("%s refused a job the scheduler placed on it: %v", a.Name(), err)
	}
	return err
}

// gate is an mds.Sink that forwards a resource's publications until
// it is closed: the resource's container going silent, after which its
// entry ages out of the index.
type gate struct {
	dst    mds.Sink
	closed bool
}

func (g *gate) Publish(info lrm.Info) {
	if !g.closed {
		g.dst.Publish(info)
	}
}

// perfectPredictor predicts from the spec's expected work — an oracle
// for tests that need reliable estimates.
type perfectPredictor struct{}

func (perfectPredictor) Predict(spec *workload.JobSpec) (float64, error) {
	return workload.ReferenceSeconds(spec.ExpectedWork()), nil
}

// testJob builds a 256-MB job of the given reference-seconds.
func testJob(id string, refSeconds float64) *GridJob {
	return &GridJob{Job: lrm.Job{ID: id, MemoryMB: 256, Work: refSeconds * lrm.ReferenceCellsPerSecond}}
}

// doneFunc is a test's Owner: a func called with each terminal job.
type doneFunc func(*GridJob)

func (f doneFunc) JobDone(j *GridJob) { f(j) }

// submit gives j its terminal callback and submits it with spec.
func submit(s *Scheduler, j *GridJob, spec *workload.JobSpec, onDone func(*GridJob)) *GridJob {
	if onDone != nil {
		j.Owner = doneFunc(onDone)
	}
	s.submit(j, spec)
	return j
}

func TestSubmitAndComplete(t *testing.T) {
	g := newGrid(t, DefaultConfig())
	done := 0
	for i := 0; i < 10; i++ {
		submit(g.sched, testJob(fmt.Sprintf("j%d", i), 600), nil, func(j *GridJob) {
			if j.Status == StatusCompleted {
				done++
			}
		})
	}
	g.eng.RunUntil(sim.Time(2 * sim.Day))
	if done != 10 {
		t.Fatalf("%d of 10 jobs completed", done)
	}
	st := g.sched.Stats()
	if st.Submitted != 10 || st.Completed != 10 {
		t.Errorf("stats: %+v", st)
	}
}

// TestIdenticalBatchesGetDistinctJobIDs: every job ID carries the
// scheduler's own sequence number, so the same submission expanded
// twice never repeats an ID.
func TestIdenticalBatchesGetDistinctJobIDs(t *testing.T) {
	g := newGrid(t, DefaultConfig())
	sub := workload.Submission{
		Spec: workload.JobSpec{DataType: phylo.Nucleotide, SubstModel: "JC69",
			NumTaxa: 10, SeqLength: 100, SearchReps: 1, StartingTree: phylo.StartRandom},
		Replicates: 4, UserEmail: "same@example.edu", BatchTag: "batch-000001",
	}
	seen := map[string]bool{}
	for i := 0; i < 2; i++ {
		jobs := g.sched.SubmitBatch(&sub, sim.NewRNG(1), nil, nil)
		for _, j := range jobs {
			if seen[j.ID] {
				t.Errorf("job ID %s given twice", j.ID)
			}
			seen[j.ID] = true
		}
	}
	if len(seen) != 8 {
		t.Errorf("%d distinct job IDs, want 8", len(seen))
	}
}

func TestStabilityGateKeepsLongJobsOffCondor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = PolicyFull
	g := newGrid(t, cfg)
	// An estimator that reports 40 h for every job.
	g.sched.SetPredictor(fixedPredictor(40 * 3600))
	spec := workload.JobSpec{DataType: phylo.Nucleotide, SubstModel: "JC69",
		NumTaxa: 10, SeqLength: 100, SearchReps: 1, StartingTree: phylo.StartRandom}
	var jobs []*GridJob
	for i := 0; i < 6; i++ {
		j := submit(g.sched, testJob(fmt.Sprintf("long%d", i), 40*3600), &spec, nil)
		jobs = append(jobs, j)
	}
	g.eng.RunUntil(sim.Time(1 * sim.Hour))
	for i, j := range jobs {
		if j.Resource() == "condor-pool" {
			t.Errorf("long job %d placed on the unstable pool", i)
		}
	}
}

func TestNaivePolicyIgnoresStability(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = PolicyNaive
	g := newGrid(t, cfg)
	g.sched.SetPredictor(fixedPredictor(40 * 3600))
	spec := workload.JobSpec{DataType: phylo.Nucleotide, SubstModel: "JC69",
		NumTaxa: 10, SeqLength: 100, SearchReps: 1, StartingTree: phylo.StartRandom}
	// Saturate: 32 long jobs across 16 CPUs, spaced out so the MDS
	// view refreshes between placements; naive spreading must put
	// some on the pool once the cluster backs up.
	var jobs []*GridJob
	for i := 0; i < 32; i++ {
		i := i
		g.eng.Schedule(sim.Duration(i)*5*sim.Minute, func() {
			j := submit(g.sched, testJob(fmt.Sprintf("l%d", i), 40*3600), &spec, nil)
			jobs = append(jobs, j)
		})
	}
	g.eng.RunUntil(sim.Time(6 * sim.Hour))
	onPool := 0
	for _, j := range jobs {
		if j.Resource() == "condor-pool" {
			onPool++
		}
	}
	if onPool == 0 {
		t.Error("naive policy never used the unstable pool for long jobs")
	}
}

// fixedPredictor always returns the same estimate.
type fixedPredictor float64

func (f fixedPredictor) Predict(*workload.JobSpec) (float64, error) { return float64(f), nil }

func TestSpeedAwareprefersFastCluster(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = PolicySpeedAware
	g := newGrid(t, cfg)
	// With both resources idle, every early job should go to the
	// 2×-speed cluster until its backlog builds.
	first := submit(g.sched, testJob("probe", 600), nil, nil)
	g.eng.RunUntil(sim.Time(10 * sim.Minute))
	if first.Resource() != "hpc-cluster" {
		t.Errorf("first job placed on %s, want the fast cluster", first.Resource())
	}
}

// TestMemoryAndPlatformFiltering sends jobs the pool would refuse at
// Submit, needing more memory than any of its machines has, more of
// them than the cluster's backlog cap admits, so the idle pool is the
// only other candidate; newGrid's acceptsAll fails the test if one
// reaches it. No job names a platform: GARLI runs on all three.
func TestMemoryAndPlatformFiltering(t *testing.T) {
	g := newGrid(t, DefaultConfig())
	var jobs []*GridJob
	for i := 0; i < 20; i++ {
		j := testJob(fmt.Sprintf("big%d", i), 600)
		j.MemoryMB = 4096 // only the cluster has 8 GB nodes
		jobs = append(jobs, submit(g.sched, j, nil, nil))
	}
	g.eng.RunUntil(sim.Time(1 * sim.Hour))
	for _, j := range jobs {
		if r := j.Resource(); r != "hpc-cluster" && r != "" {
			t.Errorf("%s placed on %q, want hpc-cluster", j.ID, r)
		}
	}
	if g.hpc.Stats().TotalQueued == 0 {
		t.Error("the cluster ran none of the big jobs")
	}
}

func TestUnplaceableJobWaitsThenRuns(t *testing.T) {
	g := newGrid(t, DefaultConfig())
	// No node has 16 GB yet.
	big := testJob("big", 60)
	big.MemoryMB = 16384
	done := false
	submit(g.sched, big, nil, func(j *GridJob) { done = j.Status == StatusCompleted })
	if len(g.sched.pending) != 1 {
		t.Fatalf("job should be pending, have %d", len(g.sched.pending))
	}
	// A large-memory cluster joins the grid later.
	g.eng.Schedule(2*sim.Hour, func() {
		bigmem, err := cluster.New(g.eng, nil, nil, cluster.Config{
			Kind: "pbs", Name: "bigmem-cluster", Platform: lrm.LinuxX86,
			Nodes: []cluster.NodeClass{{Count: 2, Cores: 1, Speed: 1, MemoryMB: 32768}},
		})
		if err != nil {
			t.Error(err)
			return
		}
		mds.StartProvider(g.eng, g.idx, bigmem, sim.Minute)
		g.sched.Register(bigmem, 1.0)
	})
	g.eng.RunUntil(sim.Time(6 * sim.Hour))
	if !done || big.Resource() != "bigmem-cluster" {
		t.Errorf("job done %v on %q, want it run on the cluster that joined", done, big.Resource())
	}
}

func TestOfflineResourceNotUsed(t *testing.T) {
	eng := sim.NewEngine()
	idx, _ := mds.NewIndex(eng, 3*sim.Minute)
	hpc, _ := cluster.New(eng, nil, nil, cluster.Config{
		Kind: "pbs", Name: "solo", Platform: lrm.LinuxX86,
		Nodes: []cluster.NodeClass{{Count: 2, Cores: 1, Speed: 1, MemoryMB: 2048}},
	})
	g := &gate{dst: idx}
	mds.StartProvider(eng, g, hpc, sim.Minute)
	sched := New(eng, idx, DefaultConfig(), Options{})
	sched.Register(hpc, 1)
	// Resource crashes at t = 10 min; submit at t = 20 min.
	eng.Schedule(10*sim.Minute, func() { g.closed = true })
	eng.Schedule(20*sim.Minute, func() {
		j := submit(sched, testJob("after-crash", 60), nil, nil)
		if j.Status != StatusPending {
			t.Errorf("job scheduled to an offline resource (status %v on %s)", j.Status, j.Resource())
		}
	})
	eng.RunUntil(sim.Time(30 * sim.Minute))
}

// A resource that fails every job it is given: the scheduler retries
// the job up to retryLimit times, then marks it failed.
func TestRetryAfterResourceFailure(t *testing.T) {
	eng := sim.NewEngine()
	idx, _ := mds.NewIndex(eng, 5*sim.Minute)
	res := &refusingLRM{eng: eng, name: "doomed", failN: 1 << 30, failSync: true,
		jobs: make(map[string]*lrm.Job)}
	if err := mds.StartProvider(eng, idx, res, sim.Minute); err != nil {
		t.Fatal(err)
	}
	sched := New(eng, idx, DefaultConfig(), Options{})
	if err := sched.Register(res, 1.0); err != nil {
		t.Fatal(err)
	}
	var final *GridJob
	submit(sched, testJob("flaky", 7200), nil, func(j *GridJob) { final = j })
	eng.RunUntil(sim.Time(2 * sim.Day))
	if final == nil {
		t.Fatal("job never reached a terminal state")
	}
	if final.Status != StatusFailed || final.FailReason != "node died at start" {
		t.Fatalf("status = %v (%q), want failed by the resource", final.Status, final.FailReason)
	}
	if final.Attempts != retryLimit+1 || res.submits != retryLimit+1 {
		t.Errorf("attempts = %d, resource saw %d; want %d", final.Attempts, res.submits, retryLimit+1)
	}
	if st := sched.Stats(); st.Retries != retryLimit+1 || st.Failed != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestCalibrateRecoverSpeeds(t *testing.T) {
	eng := sim.NewEngine()
	fast, _ := cluster.New(eng, nil, nil, cluster.Config{
		Kind: "pbs", Name: "fast", Platform: lrm.LinuxX86,
		Nodes: []cluster.NodeClass{{Count: 2, Cores: 1, Speed: 2.0, MemoryMB: 2048}},
	})
	slow, _ := cluster.New(eng, nil, nil, cluster.Config{
		Kind: "pbs", Name: "slow", Platform: lrm.LinuxX86,
		Nodes: []cluster.NodeClass{{Count: 2, Cores: 1, Speed: 0.5, MemoryMB: 2048}},
	})
	sFast, err := Calibrate(eng, fast, 600, 2, sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	sSlow, err := Calibrate(eng, slow, 600, 2, sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	if sFast < 1.9 || sFast > 2.1 {
		t.Errorf("fast speed measured %.2f, want ≈ 2.0", sFast)
	}
	if sSlow < 0.45 || sSlow > 0.55 {
		t.Errorf("slow speed measured %.2f, want ≈ 0.5", sSlow)
	}
}

func TestBundlingMergesShortReplicates(t *testing.T) {
	g := newGrid(t, DefaultConfig())
	g.sched.SetPredictor(fixedPredictor(60)) // 1-minute jobs
	sub := &workload.Submission{
		Spec: workload.JobSpec{
			DataType: phylo.Nucleotide, SubstModel: "JC69",
			NumTaxa: 8, SeqLength: 100, SearchReps: 1,
			StartingTree: phylo.StartRandom, Seed: 1,
		},
		Replicates: 100,
		UserEmail:  "u@x",
	}
	jobs := g.sched.SubmitBatch(sub, sim.NewRNG(2), nil, nil)
	// 60-second jobs bundled to 1800 s target → ~30 reps per job.
	if len(jobs) > 10 {
		t.Errorf("bundling produced %d jobs for 100 one-minute replicates; expected a handful", len(jobs))
	}
	totalReps := 0
	for _, j := range jobs {
		totalReps += j.SearchReps
	}
	if totalReps != 100 {
		t.Errorf("replicates lost in bundling: %d of 100", totalReps)
	}
	if g.sched.Stats().Bundled == 0 {
		t.Error("bundle counter untouched")
	}
}

func TestNoBundlingForLongJobs(t *testing.T) {
	g := newGrid(t, DefaultConfig())
	g.sched.SetPredictor(fixedPredictor(7200))
	sub := &workload.Submission{
		Spec: workload.JobSpec{
			DataType: phylo.Nucleotide, SubstModel: "JC69",
			NumTaxa: 8, SeqLength: 100, SearchReps: 1,
			StartingTree: phylo.StartRandom, Seed: 1,
		},
		Replicates: 20,
		UserEmail:  "u@x",
	}
	jobs := g.sched.SubmitBatch(sub, sim.NewRNG(3), nil, nil)
	if len(jobs) != 20 {
		t.Errorf("long jobs were bundled: %d jobs for 20 replicates", len(jobs))
	}
}

func TestBoincDeadlineFromEstimate(t *testing.T) {
	eng := sim.NewEngine()
	idx, _ := mds.NewIndex(eng, 5*sim.Minute)
	rng := sim.NewRNG(4)
	srv, err := boinc.NewServer(eng, rng, nil, "volunteers")
	if err != nil {
		t.Fatal(err)
	}
	boinc.GeneratePopulation(srv, rng, boinc.DefaultPopulation(30))
	mds.StartProvider(eng, idx, srv, sim.Minute)
	sched := New(eng, idx, DefaultConfig(), Options{})
	sched.Register(srv, 0.8)
	sched.SetPredictor(fixedPredictor(2 * 3600))
	spec := workload.JobSpec{DataType: phylo.Nucleotide, SubstModel: "JC69",
		NumTaxa: 10, SeqLength: 100, SearchReps: 1, StartingTree: phylo.StartRandom}
	j := submit(sched, testJob("wu1", 2*3600), &spec, nil)
	eng.RunUntil(sim.Time(1 * sim.Hour))
	if j.Resource() != "volunteers" {
		t.Fatalf("job placed on %q (status %v)", j.Resource(), j.Status)
	}
	if j.EstimatedRefSeconds < 2*3600 {
		t.Errorf("estimate not recorded: %v", j.EstimatedRefSeconds)
	}
	// A 12-hour job, by contrast, must be gated off the unstable
	// volunteer pool entirely.
	long := testJob("wu2", 12*3600)
	sched.SetPredictor(fixedPredictor(12 * 3600))
	lj := submit(sched, long, &spec, nil)
	eng.RunUntil(sim.Time(2 * sim.Hour))
	if lj.Resource() == "volunteers" {
		t.Error("12-hour job placed on the unstable volunteer pool")
	}
}

func TestRegisterValidation(t *testing.T) {
	g := newGrid(t, DefaultConfig())
	if err := g.sched.Register(g.pool, 1.0); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := g.sched.Register(g.hpc, -1); err == nil {
		t.Error("negative speed accepted")
	}
}

func TestDataStagingDelaysExecution(t *testing.T) {
	g := newGrid(t, DefaultConfig())
	d := testJob("staged", 60)
	d.InputMB = 120 * stageBandwidthMBps // 2 minutes in: staging dominates
	var doneAt sim.Time
	submit(g.sched, d, nil, func(j *GridJob) { doneAt = j.CompletedAt })
	g.eng.RunUntil(sim.Time(1 * sim.Hour))
	if doneAt == 0 {
		t.Fatal("staged job never completed")
	}
	// 120 s stage-in + 45 s exec (60 s and the 30-s overhead at speed 2)
	// + the results' stage-out > 165 s.
	if float64(doneAt) <= 165 {
		t.Errorf("job done at %.0f s; staging delays not applied", float64(doneAt))
	}
	// With nothing to stage the same job is much faster.
	g2 := newGrid(t, DefaultConfig())
	d2 := testJob("fast", 60)
	var doneAt2 sim.Time
	submit(g2.sched, d2, nil, func(j *GridJob) { doneAt2 = j.CompletedAt })
	g2.eng.RunUntil(sim.Time(1 * sim.Hour))
	if doneAt2 == 0 || doneAt2 >= doneAt {
		t.Errorf("unstaged job at %.0f s not faster than the staged one at %.0f s",
			float64(doneAt2), float64(doneAt))
	}
}

// TestStagingLegsAreTimedExactly pins both staging legs on a resource
// that reports only when told to: the submission reaches it once the
// input has staged, and a completion it reports counts only after the
// results' stage-out.
func TestStagingLegsAreTimedExactly(t *testing.T) {
	eng := sim.NewEngine()
	idx, err := mds.NewIndex(eng, 5*sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	h := &holdingLRM{name: "held", kind: "pbs"}
	sched := New(eng, idx, DefaultConfig(), Options{})
	if err := sched.Register(h, 1); err != nil {
		t.Fatal(err)
	}
	idx.Publish(h.Info())
	d := testJob("staged", 60)
	d.InputMB = 120 * stageBandwidthMBps
	var doneAt sim.Time
	j := submit(sched, d, nil, func(j *GridJob) { doneAt = j.CompletedAt })
	eng.RunUntil(sim.Time(119))
	if len(h.jobs) != 0 {
		t.Fatal("job submitted before its input staged")
	}
	eng.RunUntil(sim.Time(121))
	if len(h.jobs) != 1 {
		t.Fatalf("resource holds %d jobs after the input staged, want 1", len(h.jobs))
	}
	if stageOutDelay <= 0 {
		t.Fatalf("stage-out delay %v, want > 0", stageOutDelay)
	}
	t0 := eng.Now()
	h.jobs[0].Owner.Complete(h.jobs[0], t0)
	eng.RunUntil(t0.Add(stageOutDelay / 2))
	if j.Status != StatusRunning {
		t.Fatalf("job %v before its results staged back", j.Status)
	}
	eng.RunUntil(t0.Add(sim.Minute))
	if j.Status != StatusCompleted || doneAt != t0.Add(stageOutDelay) {
		t.Errorf("job %v at %v, want completed at %v", j.Status, doneAt, t0.Add(stageOutDelay))
	}
}
