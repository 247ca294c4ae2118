package experiments

import (
	"fmt"
	"math"

	"lattice/internal/core"
	"lattice/internal/estimate"
	"lattice/internal/lrm"
	"lattice/internal/lrm/cluster"
	"lattice/internal/lrm/condor"
	"lattice/internal/metasched"
	"lattice/internal/phylo"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// BundlingResult is E9: replicate bundling for very short jobs.
type BundlingResult struct {
	Rows [][]string
	// OverheadFraction per configuration: overhead CPU / total CPU.
	Off, On float64
	// Makespans.
	MakespanOff, MakespanOn sim.Duration
}

// ReplicateBundling submits a 600-replicate batch of few-minute jobs
// with bundling disabled and enabled — Section VI-A's third use of
// estimates ("the overhead of submitting each one independently
// substantially and negatively impacts performance").
func ReplicateBundling(seed int64) (*BundlingResult, error) {
	res := &BundlingResult{}
	shortSpec := workload.JobSpec{
		DataType: phylo.Nucleotide, SubstModel: "HKY85",
		RateHet: phylo.RateGamma, NumRateCats: 4, GammaShape: 0.6,
		NumTaxa: 8, SeqLength: 220, SearchReps: 1,
		StartingTree: phylo.StartStepwise, AttachmentsPerTaxon: 10, Seed: seed,
	}
	perJob := workload.ReferenceSeconds(shortSpec.ExpectedWork())
	for _, bundling := range []bool{false, true} {
		sched := metasched.DefaultConfig()
		if !bundling {
			sched.BundleTargetSeconds = 0
		}
		sub := workload.Submission{Spec: shortSpec, Replicates: 600, UserEmail: "boot@lab.edu", Bootstrap: true}
		// Exact estimates isolate the bundling mechanism from model
		// extrapolation error on jobs smaller than the training range.
		load := predicting(oraclePredictor{}, paced([]workload.Submission{sub}, 0))
		m, err := measure(gridScenario(standardFederation(sched, 100, 120), load, 60*sim.Day), seed)
		if err != nil {
			return nil, err
		}
		overhead := float64(m.Jobs) * metasched.PerJobOverheadSeconds / 3600
		useful := perJob * 600 / 3600
		frac := overhead / (overhead + useful)
		name := "bundling off (600 jobs)"
		if bundling {
			name = fmt.Sprintf("bundling on (%d jobs)", m.Jobs)
			res.On = frac
			res.MakespanOn = m.Makespan
		} else {
			res.Off = frac
			res.MakespanOff = m.Makespan
		}
		res.Rows = append(res.Rows, []string{
			name,
			fmt.Sprintf("%d", m.Jobs),
			fmt.Sprintf("%d/%d", m.Completed, m.Jobs),
			hours(m.Makespan),
			fmt.Sprintf("%.1f%%", 100*frac),
		})
	}
	return res, nil
}

func (r *BundlingResult) String() string {
	return "E9 — replicate bundling for very short jobs (30 s grid overhead per job)\n" +
		table([]string{"configuration", "grid jobs", "completed", "makespan", "overhead fraction"}, r.Rows)
}

// PortalScaleResult is E10: the same 2000-replicate submission on the
// grid, one cluster, and one processor.
type PortalScaleResult struct {
	Rows [][]string
	// Makespans for speedup assertions.
	Grid, Cluster, Single sim.Duration
}

// PortalScale reproduces Section III-B: "whereas other science portals
// generally allow you to use only one processor or maybe a small
// handful", the grid takes a maximal 2000-replicate submission and
// spreads it across the federation.
func PortalScale(seed int64) (*PortalScaleResult, error) {
	res := &PortalScaleResult{}
	spec := workload.JobSpec{
		DataType: phylo.Nucleotide, SubstModel: "GTR",
		RateHet: phylo.RateGamma, NumRateCats: 4, GammaShape: 0.5,
		NumTaxa: 100, SeqLength: 3000, SearchReps: 1,
		StartingTree: phylo.StartStepwise, AttachmentsPerTaxon: 25, Seed: seed,
	}
	sub := workload.Submission{Spec: spec, Replicates: 2000, UserEmail: "atol@lab.edu", Bootstrap: true}

	load := paced([]workload.Submission{sub}, 0)

	// Full federation.
	o, err := execute(gridScenario(standardFederation(metasched.DefaultConfig(), 100, 400), load, 365*sim.Day), seed)
	if err != nil {
		return nil, err
	}
	m := o.m
	res.Grid = m.P95Completion
	res.Rows = append(res.Rows, []string{"The Lattice Project (full grid)", fmt.Sprintf("%d", o.lats[0].TotalCores()), hours(m.P95Completion), hours(m.Makespan)})

	// Single 64-core cluster.
	single := func(seed int64) core.Config {
		return core.Config{
			Seed: seed, Scheduler: metasched.DefaultConfig(), Estimator: estimate.DefaultConfig(), TrainingJobs: 100,
			Resources: []core.ResourceSpec{{Kind: "pbs", Name: "one-cluster", Nodes: 64, Speed: 2.0, MemMB: 8192, Platform: lrm.LinuxX86}},
		}
	}
	if m, err = measure(gridScenario(single, load, 3*365*sim.Day), seed); err != nil {
		return nil, err
	}
	res.Cluster = m.P95Completion
	res.Rows = append(res.Rows, []string{"single 64-node cluster", "64", hours(m.P95Completion), hours(m.Makespan)})

	// Single processor: analytic (2000 sequential runs at speed 1).
	perJob := workload.ReferenceSeconds(spec.ExpectedWork())
	res.Single = sim.Duration(2000 * perJob)
	res.Rows = append(res.Rows, []string{"single processor (typical portal)", "1",
		fmt.Sprintf("%.0f h (%.0f days)", 0.95*res.Single.Hours(), 0.95*res.Single.Hours()/24),
		fmt.Sprintf("%.0f h", res.Single.Hours())})
	return res, nil
}

func (r *PortalScaleResult) String() string {
	return "E10 — one maximal portal submission (2000 replicates) across deployment scales\n" +
		table([]string{"deployment", "cores", "95% complete", "all complete"}, r.Rows)
}

// SystemScaleResult is E11: the paper-scale federation.
type SystemScaleResult struct {
	TotalCores     int
	BoincHosts     int
	Platforms      int
	CPUYearsPerDay float64
	// FifteenCPUYears is the wall time to finish a 15-CPU-year batch
	// (the paper's first system did it "in just a few months").
	FifteenCPUYears sim.Duration
	Rows            [][]string
}

// SystemScale builds a federation at the paper's published scale
// (>5000 CPU cores, thousands of volunteer hosts) and verifies the
// aggregate claims, then times a 15-CPU-year batch.
func SystemScale(seed int64) (*SystemScaleResult, error) {
	federation := func(seed int64) core.Config {
		cfg := standardFederation(metasched.DefaultConfig(), 100, 4600)(seed)
		for i := range cfg.Resources {
			if cfg.Resources[i].Kind != "boinc" {
				cfg.Resources[i].Nodes *= 2
			}
		}
		return cfg
	}
	res := &SystemScaleResult{}
	// census reads the aggregate claims off the federation as built,
	// before the batch perturbs it.
	census := func(lat *core.Lattice) {
		res.TotalCores, res.BoincHosts = lat.TotalCores(), lat.Boinc.NumHosts()
		plats := map[lrm.Platform]bool{}
		for _, e := range lat.Index.Snapshot() {
			for _, p := range e.Info.Platforms {
				plats[p] = true
			}
		}
		res.Platforms = len(plats)
	}

	// A 15-CPU-year batch of AToL-scale analyses (~20 reference-hours
	// per job, the simulation-study scale of the paper's first grid).
	spec := workload.JobSpec{
		DataType: phylo.Nucleotide, SubstModel: "GTR",
		RateHet: phylo.RateGamma, NumRateCats: 4, GammaShape: 0.5,
		NumTaxa: 250, SeqLength: 5000, SearchReps: 4,
		StartingTree: phylo.StartStepwise, AttachmentsPerTaxon: 25, Seed: seed,
	}
	perJob := workload.ReferenceSeconds(spec.ExpectedWork())
	jobs := int(15 * 365 * 86400 / perJob)
	var subs []workload.Submission
	remaining := jobs
	for remaining > 0 {
		n := remaining
		if n > workload.MaxReplicates {
			n = workload.MaxReplicates
		}
		subs = append(subs, workload.Submission{Spec: spec, Replicates: n, UserEmail: "sim@lab.edu", Bootstrap: true})
		remaining -= n
	}
	load := func(r *run) error {
		census(r.lats[0])
		return paced(subs, 0)(r)
	}
	m, err := measure(gridScenario(federation, load, 360*sim.Day), seed)
	if err != nil {
		return nil, err
	}
	res.FifteenCPUYears = m.Makespan
	if m.Makespan > 0 {
		res.CPUYearsPerDay = (m.UsefulCPUHours / 24 / 365) / (m.Makespan.Hours() / 24)
	}
	res.Rows = [][]string{
		{"total CPU cores", fmt.Sprintf("%d", res.TotalCores), "> 5000 (paper)"},
		{"volunteer hosts", fmt.Sprintf("%d", res.BoincHosts), "23192 lifetime (paper)"},
		{"platforms", fmt.Sprintf("%d", res.Platforms), "3 (paper)"},
		{"15-CPU-year batch", fmt.Sprintf("%.0f days (%d/%d jobs)", res.FifteenCPUYears.Hours()/24, m.Completed, m.Jobs), "a few months (paper)"},
		{"sustained throughput", fmt.Sprintf("%.2f CPU-years/day", res.CPUYearsPerDay), "—"},
	}
	return res, nil
}

func (r *SystemScaleResult) String() string {
	return "E11 — federation at the paper's published scale\n" +
		table([]string{"quantity", "measured", "paper"}, r.Rows)
}

// RetrainingResult is E13: continuous model retraining from reference
// forks.
type RetrainingResult struct {
	Rows [][]string
	// Final rolling mean |log error| with and without retraining.
	Frozen, Retrained float64
}

// ContinuousRetraining streams 240 submissions whose parameter mix
// drifts (data sets grow over the stream, as AToL projects scale up);
// a frozen 30-job model decays while the continuously retrained one
// tracks the drift — Section VI-E.
func ContinuousRetraining(seed int64) (*RetrainingResult, error) {
	makeStream := func() []workload.JobSpec {
		gen := workload.NewGenerator(seed + 5)
		specs := make([]workload.JobSpec, 240)
		for i := range specs {
			s := gen.Job()
			// Drift: sizes grow ~3× across the stream.
			scale := 1 + 2*float64(i)/float64(len(specs))
			s.NumTaxa = int(float64(s.NumTaxa) * scale)
			if s.NumTaxa > 400 {
				s.NumTaxa = 400
			}
			specs[i] = s
		}
		return specs
	}
	res := &RetrainingResult{}
	for _, retrain := range []bool{false, true} {
		cfg := estimate.DefaultConfig()
		cfg.Seed = seed
		est, err := estimate.Bootstrap(cfg, workload.NewGenerator(seed), 30)
		if err != nil {
			return nil, err
		}
		rng := sim.NewRNG(seed + 9)
		var rolling []float64
		for _, spec := range makeStream() {
			spec := spec
			pred, err := est.Predict(&spec)
			if err != nil {
				return nil, err
			}
			actual := workload.ReferenceSeconds(spec.SampleWork(rng))
			rolling = append(rolling, math.Abs(math.Log(pred)-math.Log(actual)))
			if retrain {
				if err := est.AddObservation(&spec, actual); err != nil {
					return nil, err
				}
				if err := est.Retrain(); err != nil {
					return nil, err
				}
			}
		}
		// Mean |log error| over the final quarter of the stream.
		tail := rolling[len(rolling)*3/4:]
		var sum float64
		for _, v := range tail {
			sum += v
		}
		final := sum / float64(len(tail))
		name := "frozen 30-job model"
		if retrain {
			name = "continuous retraining"
			res.Retrained = final
		} else {
			res.Frozen = final
		}
		res.Rows = append(res.Rows, []string{
			name,
			fmt.Sprintf("%.3f", final),
			fmt.Sprintf("×%.2f", math.Exp(final)),
		})
	}
	return res, nil
}

func (r *RetrainingResult) String() string {
	return "E13 — continuous retraining vs frozen model under workload drift\n" +
		table([]string{"configuration", "tail mean |log error|", "typical factor"}, r.Rows)
}

// CheckpointResult is E14: estimate gating vs the 1-hour
// terminate-and-resume alternative the paper considered and deferred.
type CheckpointResult struct {
	Rows [][]string
	// Overheads in CPU-hours.
	GatingWaste, CyclingOverhead float64
	GatingLatency, CyclingLat    sim.Duration
}

// CheckpointAlternative compares (a) sending a long job to a stable
// cluster (the estimate-gating design) against (b) running it on an
// unstable pool in one-hour checkpoint slices with per-slice
// reschedule/data-movement overhead ("we anticipate significant
// overhead resulting from terminating jobs and rescheduling them").
func CheckpointAlternative(seed int64) (*CheckpointResult, error) {
	const jobRefHours = 30.0
	const slice = sim.Hour
	const perSliceOverhead = 150.0 // seconds: requeue + moving checkpoints around
	res := &CheckpointResult{}

	// (a) Gating: job waits for and runs on a busy stable cluster.
	{
		eng := sim.NewEngine()
		cl, err := cluster.New(eng, cluster.Config{
			Kind: "pbs", Name: "cluster", Platform: lrm.LinuxX86,
			Nodes: []cluster.NodeClass{{Count: 4, Cores: 1, Speed: 1, MemoryMB: 4096}},
		})
		if err != nil {
			return nil, err
		}
		// Background load: the cluster is half busy.
		for i := 0; i < 6; i++ {
			if err := cl.Submit(&lrm.Job{ID: fmt.Sprintf("bg%d", i), Work: 6 * 3600 * lrm.ReferenceCellsPerSecond, MemoryMB: 256}); err != nil {
				return nil, err
			}
		}
		var doneAt sim.Time
		j := &lrm.Job{ID: "long", Work: jobRefHours * 3600 * lrm.ReferenceCellsPerSecond, MemoryMB: 256}
		j.OnComplete = func(at sim.Time) { doneAt = at }
		if err := cl.Submit(j); err != nil {
			return nil, err
		}
		eng.RunUntil(sim.Time(30 * sim.Day))
		res.GatingLatency = doneAt.Sub(0)
		res.GatingWaste = cl.Stats().WastedCPU / 3600
	}

	// (b) Checkpoint cycling on an unstable pool.
	{
		eng := sim.NewEngine()
		rng := sim.NewRNG(seed)
		machines := make([]condor.Machine, 6)
		for i := range machines {
			machines[i] = condor.Machine{
				Speed: 1, MemoryMB: 4096, Platform: lrm.LinuxX86,
				MeanOwnerAway: 4 * sim.Hour, MeanOwnerBusy: 2 * sim.Hour,
			}
		}
		pool, err := condor.New(eng, rng, condor.Config{Name: "pool", Machines: machines})
		if err != nil {
			return nil, err
		}
		remaining := jobRefHours * 3600.0
		var doneAt sim.Time
		var overhead float64
		var submitErr error
		sliceN := 0
		var submitSlice func()
		submitSlice = func() {
			sliceSecs := math.Min(remaining, slice.Seconds())
			sliceN++
			overhead += perSliceOverhead
			j := &lrm.Job{
				ID:       fmt.Sprintf("slice-%d", sliceN),
				Work:     (sliceSecs + perSliceOverhead) * lrm.ReferenceCellsPerSecond,
				MemoryMB: 256,
			}
			j.OnComplete = func(at sim.Time) {
				remaining -= sliceSecs
				if remaining <= 0 {
					doneAt = at
					return
				}
				submitSlice()
			}
			if err := pool.Submit(j); err != nil {
				submitErr = err
			}
		}
		submitSlice()
		eng.RunUntil(sim.Time(60 * sim.Day))
		if submitErr != nil {
			return nil, submitErr
		}
		res.CyclingLat = doneAt.Sub(0)
		res.CyclingOverhead = overhead/3600 + pool.Stats().WastedCPU/3600
		if doneAt == 0 {
			res.CyclingLat = 60 * sim.Day
		}
	}
	res.Rows = [][]string{
		{"estimate gating → stable cluster", hours(res.GatingLatency), fmt.Sprintf("%.1f", res.GatingWaste)},
		{"1-hour checkpoint cycling on pool", hours(res.CyclingLat), fmt.Sprintf("%.1f", res.CyclingOverhead)},
	}
	return res, nil
}

func (r *CheckpointResult) String() string {
	return "E14 — a 30-hour job: estimate gating vs terminate-and-resume cycling\n" +
		table([]string{"strategy", "completion latency", "overhead/waste CPU-h"}, r.Rows)
}
