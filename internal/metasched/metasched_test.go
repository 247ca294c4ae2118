package metasched

import (
	"fmt"
	"testing"

	"lattice/internal/boinc"
	"lattice/internal/grid/mds"
	"lattice/internal/grid/rsl"
	"lattice/internal/lrm"
	"lattice/internal/lrm/cluster"
	"lattice/internal/lrm/condor"
	"lattice/internal/phylo"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// grid is a small test federation.
type grid struct {
	eng   *sim.Engine
	idx   *mds.Index
	sched *Scheduler
	pool  *condor.Pool
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
	machines := make([]condor.Machine, 8)
	for i := range machines {
		machines[i] = condor.Machine{
			Speed: 1.0, MemoryMB: 2048, Platform: lrm.LinuxX86,
			MeanOwnerAway: 5 * sim.Hour, MeanOwnerBusy: 30 * sim.Minute,
		}
	}
	pool, err := condor.New(eng, sim.NewRNG(1), condor.Config{Name: "condor-pool", Machines: machines})
	if err != nil {
		t.Fatal(err)
	}
	hpc, err := cluster.New(eng, cluster.Config{
		Kind: "pbs", Name: "hpc-cluster", Platform: lrm.LinuxX86, MPI: true,
		Nodes: []cluster.NodeClass{{Count: 8, Cores: 1, Speed: 2.0, MemoryMB: 8192}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mds.StartProvider(eng, idx, pool, sim.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := mds.StartProvider(eng, idx, hpc, sim.Minute); err != nil {
		t.Fatal(err)
	}
	sched := New(eng, idx, cfg, Options{})
	if err := sched.Register(pool, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := sched.Register(hpc, 2.0); err != nil {
		t.Fatal(err)
	}
	return &grid{eng: eng, idx: idx, sched: sched, pool: pool, hpc: hpc}
}

// perfectPredictor predicts from the spec's expected work — an oracle
// for tests that need reliable estimates.
type perfectPredictor struct{}

func (perfectPredictor) Predict(spec *workload.JobSpec) (float64, error) {
	return workload.ReferenceSeconds(spec.ExpectedWork()), nil
}

// jobDesc builds a description of the given reference-seconds.
func jobDesc(id string, refSeconds float64) *rsl.JobDescription {
	return &rsl.JobDescription{
		JobID: id, Executable: "garli", Count: 1,
		MaxMemoryMB: 256,
		Platforms:   []lrm.Platform{lrm.LinuxX86},
		Work:        refSeconds * lrm.ReferenceCellsPerSecond,
	}
}

func TestSubmitAndComplete(t *testing.T) {
	g := newGrid(t, DefaultConfig())
	done := 0
	for i := 0; i < 10; i++ {
		_, err := g.sched.Submit(jobDesc(fmt.Sprintf("j%d", i), 600), nil, func(j *GridJob) {
			if j.Status == StatusCompleted {
				done++
			}
		})
		if err != nil {
			t.Fatal(err)
		}
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

func TestDuplicateIDRejected(t *testing.T) {
	g := newGrid(t, DefaultConfig())
	if _, err := g.sched.Submit(jobDesc("dup", 60), nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.sched.Submit(jobDesc("dup", 60), nil, nil); err == nil {
		t.Error("duplicate job ID accepted")
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
	var placed []string
	for i := 0; i < 6; i++ {
		j, err := g.sched.Submit(jobDesc(fmt.Sprintf("long%d", i), 40*3600), &spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		_ = j
	}
	g.eng.RunUntil(sim.Time(1 * sim.Hour))
	for i := 0; i < 6; i++ {
		j := g.sched.jobs[fmt.Sprintf("long%d", i)]
		placed = append(placed, j.Resource)
		if j.Resource == "condor-pool" {
			t.Errorf("long job %d placed on the unstable pool", i)
		}
	}
	_ = placed
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
	for i := 0; i < 32; i++ {
		i := i
		g.eng.Schedule(sim.Duration(i)*5*sim.Minute, func() {
			if _, err := g.sched.Submit(jobDesc(fmt.Sprintf("l%d", i), 40*3600), &spec, nil); err != nil {
				t.Error(err)
			}
		})
	}
	g.eng.RunUntil(sim.Time(6 * sim.Hour))
	onPool := 0
	for i := 0; i < 32; i++ {
		j := g.sched.jobs[fmt.Sprintf("l%d", i)]
		if j.Resource == "condor-pool" {
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
	var first *GridJob
	var err error
	if first, err = g.sched.Submit(jobDesc("probe", 600), nil, nil); err != nil {
		t.Fatal(err)
	}
	g.eng.RunUntil(sim.Time(10 * sim.Minute))
	if first.Resource != "hpc-cluster" {
		t.Errorf("first job placed on %s, want the fast cluster", first.Resource)
	}
}

func TestMemoryAndMPIFiltering(t *testing.T) {
	g := newGrid(t, DefaultConfig())
	big := jobDesc("big", 600)
	big.MaxMemoryMB = 4096 // only the cluster has 8 GB nodes
	if _, err := g.sched.Submit(big, nil, nil); err != nil {
		t.Fatal(err)
	}
	mpi := jobDesc("mpi", 600)
	mpi.NeedsMPI = true
	if _, err := g.sched.Submit(mpi, nil, nil); err != nil {
		t.Fatal(err)
	}
	g.eng.RunUntil(sim.Time(1 * sim.Hour))
	for _, id := range []string{"big", "mpi"} {
		j := g.sched.jobs[id]
		if j.Resource != "hpc-cluster" {
			t.Errorf("%s placed on %q, want hpc-cluster", id, j.Resource)
		}
	}
}

func TestUnplaceableJobWaitsThenRuns(t *testing.T) {
	g := newGrid(t, DefaultConfig())
	// Nothing matches darwin/ppc yet.
	weird := jobDesc("ppc", 60)
	weird.Platforms = []lrm.Platform{lrm.DarwinPPC}
	done := false
	if _, err := g.sched.Submit(weird, nil, func(j *GridJob) { done = j.Status == StatusCompleted }); err != nil {
		t.Fatal(err)
	}
	if len(g.sched.pending) != 1 {
		t.Fatalf("job should be pending, have %d", len(g.sched.pending))
	}
	// A PPC cluster joins the grid later.
	g.eng.Schedule(2*sim.Hour, func() {
		ppc, err := cluster.New(g.eng, cluster.Config{
			Kind: "pbs", Name: "mac-cluster", Platform: lrm.DarwinPPC,
			Nodes: []cluster.NodeClass{{Count: 2, Cores: 1, Speed: 1, MemoryMB: 2048}},
		})
		if err != nil {
			t.Error(err)
			return
		}
		mds.StartProvider(g.eng, g.idx, ppc, sim.Minute)
		g.sched.Register(ppc, 1.0)
	})
	g.eng.RunUntil(sim.Time(6 * sim.Hour))
	if !done {
		t.Error("job never ran after an eligible resource joined")
	}
}

func TestOfflineResourceNotUsed(t *testing.T) {
	eng := sim.NewEngine()
	idx, _ := mds.NewIndex(eng, 3*sim.Minute)
	hpc, _ := cluster.New(eng, cluster.Config{
		Kind: "pbs", Name: "solo", Platform: lrm.LinuxX86,
		Nodes: []cluster.NodeClass{{Count: 2, Cores: 1, Speed: 1, MemoryMB: 2048}},
	})
	p, _ := mds.StartProvider(eng, idx, hpc, sim.Minute)
	sched := New(eng, idx, DefaultConfig(), Options{})
	sched.Register(hpc, 1)
	// Resource crashes at t = 10 min; submit at t = 20 min.
	eng.Schedule(10*sim.Minute, func() { p.Stop() })
	eng.Schedule(20*sim.Minute, func() {
		j, err := sched.Submit(jobDesc("after-crash", 60), nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if j.Status != StatusPending {
			t.Errorf("job scheduled to an offline resource (status %v on %s)", j.Status, j.Resource)
		}
	})
	eng.RunUntil(sim.Time(30 * sim.Minute))
}

func TestRetryAfterResourceFailure(t *testing.T) {
	cfg := DefaultConfig()
	g := newGrid(t, cfg)
	// A job that exceeds the pool's wall limit... instead, use a job
	// with a wall limit that fails on the first resource; the
	// scheduler should retry and eventually mark failed after limit.
	d := jobDesc("flaky", 7200)
	d.WallLimit = sim.Minute // will fail wherever it runs
	var final *GridJob
	if _, err := g.sched.Submit(d, nil, func(j *GridJob) { final = j }); err != nil {
		t.Fatal(err)
	}
	g.eng.RunUntil(sim.Time(2 * sim.Day))
	if final == nil {
		t.Fatal("job never reached a terminal state")
	}
	if final.Status != StatusFailed {
		t.Fatalf("status = %v, want failed", final.Status)
	}
	if final.Attempts < 2 {
		t.Errorf("no retries happened: attempts = %d", final.Attempts)
	}
	if g.sched.Stats().Retries == 0 {
		t.Error("retry counter untouched")
	}
}

func TestCancelPendingAndRunning(t *testing.T) {
	g := newGrid(t, DefaultConfig())
	weird := jobDesc("stuck", 60)
	weird.Platforms = []lrm.Platform{lrm.DarwinPPC}
	g.sched.Submit(weird, nil, nil)
	if !g.sched.Cancel("stuck") {
		t.Error("pending job not cancellable")
	}
	run := jobDesc("running", 7200)
	g.sched.Submit(run, nil, nil)
	g.eng.RunUntil(sim.Time(5 * sim.Minute))
	if !g.sched.Cancel("running") {
		t.Error("running job not cancellable")
	}
	if g.sched.Cancel("running") {
		t.Error("double cancel returned true")
	}
	if g.sched.Cancel("unknown") {
		t.Error("cancel of unknown job returned true")
	}
}

func TestCalibrateRecoverSpeeds(t *testing.T) {
	eng := sim.NewEngine()
	fast, _ := cluster.New(eng, cluster.Config{
		Kind: "pbs", Name: "fast", Platform: lrm.LinuxX86,
		Nodes: []cluster.NodeClass{{Count: 2, Cores: 1, Speed: 2.0, MemoryMB: 2048}},
	})
	slow, _ := cluster.New(eng, cluster.Config{
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
	jobs, err := g.sched.SubmitBatch(sub, sim.NewRNG(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	// 60-second jobs bundled to 1800 s target → ~30 reps per job.
	if len(jobs) > 10 {
		t.Errorf("bundling produced %d jobs for 100 one-minute replicates; expected a handful", len(jobs))
	}
	totalReps := 0
	for _, j := range jobs {
		totalReps += j.Spec.SearchReps
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
	jobs, err := g.sched.SubmitBatch(sub, sim.NewRNG(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 20 {
		t.Errorf("long jobs were bundled: %d jobs for 20 replicates", len(jobs))
	}
}

func TestBoincDeadlineFromEstimate(t *testing.T) {
	eng := sim.NewEngine()
	idx, _ := mds.NewIndex(eng, 5*sim.Minute)
	rng := sim.NewRNG(4)
	srv, err := boinc.NewServer(eng, rng, "volunteers")
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
	d := jobDesc("wu1", 2*3600)
	d.Platforms = []lrm.Platform{lrm.WindowsX86, lrm.LinuxX86, lrm.DarwinX86}
	j, err := sched.Submit(d, &spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(1 * sim.Hour))
	if j.Resource != "volunteers" {
		t.Fatalf("job placed on %q (status %v)", j.Resource, j.Status)
	}
	if j.EstimateRefSeconds < 2*3600 {
		t.Errorf("estimate not recorded: %v", j.EstimateRefSeconds)
	}
	// A 12-hour job, by contrast, must be gated off the unstable
	// volunteer pool entirely.
	long := jobDesc("wu2", 12*3600)
	long.Platforms = d.Platforms
	sched.SetPredictor(fixedPredictor(12 * 3600))
	lj, err := sched.Submit(long, &spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(2 * sim.Hour))
	if lj.Resource == "volunteers" {
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
	d := jobDesc("staged", 60)
	d.InputMB = 120 * stageBandwidthMBps // 2 minutes in: staging dominates
	d.OutputMB = 60 * stageBandwidthMBps // 1 minute out
	var doneAt sim.Time
	if _, err := g.sched.Submit(d, nil, func(j *GridJob) { doneAt = j.CompletedAt }); err != nil {
		t.Fatal(err)
	}
	g.eng.RunUntil(sim.Time(1 * sim.Hour))
	if doneAt == 0 {
		t.Fatal("staged job never completed")
	}
	// 120 s stage-in + 30 s exec (speed 2) + 60 s stage-out ≥ 210 s.
	if float64(doneAt) < 200 {
		t.Errorf("job done at %.0f s; staging delays not applied", float64(doneAt))
	}
	// With nothing to stage the same job is much faster.
	g2 := newGrid(t, DefaultConfig())
	d2 := jobDesc("fast", 60)
	var doneAt2 sim.Time
	if _, err := g2.sched.Submit(d2, nil, func(j *GridJob) { doneAt2 = j.CompletedAt }); err != nil {
		t.Fatal(err)
	}
	g2.eng.RunUntil(sim.Time(1 * sim.Hour))
	if doneAt2 == 0 || doneAt2 >= doneAt {
		t.Errorf("unstaged job at %.0f s not faster than the staged one at %.0f s",
			float64(doneAt2), float64(doneAt))
	}
}

func TestCancelDuringStaging(t *testing.T) {
	g := newGrid(t, DefaultConfig())
	d := jobDesc("c-staged", 60)
	d.InputMB = 600 * stageBandwidthMBps // 10 minutes of staging
	completed := false
	if _, err := g.sched.Submit(d, nil, func(j *GridJob) {
		completed = j.Status == StatusCompleted
	}); err != nil {
		t.Fatal(err)
	}
	g.eng.RunUntil(sim.Time(1 * sim.Minute))
	if !g.sched.Cancel("c-staged") {
		t.Fatal("cancel during staging failed")
	}
	g.eng.RunUntil(sim.Time(1 * sim.Hour))
	if completed {
		t.Error("job cancelled during staging still completed")
	}
}
