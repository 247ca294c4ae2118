// Benchmarks regenerating every quantitative artifact of the paper.
// Each BenchmarkE* runs one experiment per iteration and logs the
// reproduced table, so `go test -bench=. -benchmem` output is the
// reproduction record (EXPERIMENTS.md catalogues expected shapes).
// Micro-benchmarks for the hot substrates follow.
package lattice_test

import (
	"fmt"
	"testing"

	"lattice/internal/beagle"
	"lattice/internal/estimate"
	"lattice/internal/experiments"
	"lattice/internal/forest"
	"lattice/internal/phylo"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// BenchmarkFig2VariableImportance reproduces Figure 2 at the paper's
// full configuration: 150 training jobs, 10^4 trees (E1 + E2).
func BenchmarkFig2VariableImportance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(1, 150, 10000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
			b.ReportMetric(r.Importance[0].PctIncMSE, "top-%IncMSE")
			b.ReportMetric(r.Stats.PctVarExplained, "%var")
		}
	}
}

// BenchmarkE3CrossValidation reproduces the cross-validation claim.
func BenchmarkE3CrossValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.CrossValidation(2, 150, 5)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
			b.ReportMetric(r.Metrics.Correlation, "cv-corr")
		}
	}
}

// BenchmarkE3SchedulingEffect measures scheduling with vs without the
// runtime model.
func BenchmarkE3SchedulingEffect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.SchedulingEffect(5)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
		}
	}
}

// BenchmarkE4SchedulerRanking compares naive / speed-aware / full
// ranking policies.
func BenchmarkE4SchedulerRanking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.SchedulerRanking(3)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
			naive := r.Results["naive"].Makespan.Hours()
			full := r.Results["full"].Makespan.Hours()
			if full > 0 {
				b.ReportMetric(naive/full, "naive/full-makespan")
			}
		}
	}
}

// BenchmarkE5StabilityGating measures the stability criterion on a
// long-job workload.
func BenchmarkE5StabilityGating(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.StabilityGating(4)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
		}
	}
}

// BenchmarkE6SpeedCalibration recovers configured resource speeds with
// benchmark jobs.
func BenchmarkE6SpeedCalibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.SpeedCalibration(6)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
			b.ReportMetric(100*r.MaxRelError, "max-err-%")
		}
	}
}

// BenchmarkE7BoincDeadlines compares manual vs estimate-driven
// workunit deadlines.
func BenchmarkE7BoincDeadlines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.BoincDeadlines(7)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
			b.ReportMetric(r.Fixed.Hours()/r.EstimateDriven.Hours(), "latency-ratio")
		}
	}
}

// BenchmarkE8WorkFetch measures scheduler-RPC efficiency with and
// without estimates.
func BenchmarkE8WorkFetch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.WorkFetch(8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
			if r.Informed > 0 {
				b.ReportMetric(r.Blind/r.Informed, "rpc-reduction")
			}
		}
	}
}

// BenchmarkE9ReplicateBundling measures overhead amortization for very
// short jobs.
func BenchmarkE9ReplicateBundling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ReplicateBundling(9)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
		}
	}
}

// BenchmarkE10PortalScale runs the maximal 2000-replicate submission
// across deployment scales.
func BenchmarkE10PortalScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.PortalScale(10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
			b.ReportMetric(float64(r.Single)/float64(r.Grid), "grid-speedup")
		}
	}
}

// BenchmarkFaultScenario prices the fault-injection layer: the same
// 200-replicate batch with no injector wired ("fault-off") and under
// the default hostile schedule ("fault-on"). The pair is the PR4
// overhead artifact (BENCH_PR4.json, frozen).
func BenchmarkFaultScenario(b *testing.B) {
	for _, c := range []struct {
		name    string
		hostile bool
	}{
		{"fault-off", false},
		{"fault-on", true},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := experiments.FaultOverheadRun(1, c.hostile)
				if err != nil {
					b.Fatal(err)
				}
				if m.Completed+m.Failed != m.Jobs {
					b.Fatalf("batch not terminal: %+v", m)
				}
			}
		})
	}
}

// BenchmarkE11SystemScale verifies the paper-scale federation claims.
func BenchmarkE11SystemScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.SystemScale(16)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
			b.ReportMetric(r.FifteenCPUYears.Hours()/24, "15cpu-yr-days")
		}
	}
}

// BenchmarkE13ContinuousRetraining measures model drift with and
// without retraining.
func BenchmarkE13ContinuousRetraining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ContinuousRetraining(11)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
		}
	}
}

// BenchmarkE14CheckpointAlternative compares estimate gating with
// 1-hour checkpoint cycling.
func BenchmarkE14CheckpointAlternative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.CheckpointAlternative(12)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
		}
	}
}

// BenchmarkAblationMtry sweeps covariate subsampling.
func BenchmarkAblationMtry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationMtry(13, 150)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
		}
	}
}

// BenchmarkAblationForestSize sweeps ensemble size.
func BenchmarkAblationForestSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationForestSize(14, 150)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
		}
	}
}

// BenchmarkAblationImportanceMethod compares permutation and
// split-gain importance.
func BenchmarkAblationImportanceMethod(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationImportanceMethod(15, 150)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
		}
	}
}

// --- micro-benchmarks of the hot substrates ---

// BenchmarkLikelihoodNucleotide measures one pruning pass (GTR+Γ4,
// 16 taxa, ~500 patterns).
func BenchmarkLikelihoodNucleotide(b *testing.B) {
	rng := sim.NewRNG(1)
	m, err := phylo.NewGTR([6]float64{1.2, 3.5, 0.9, 1.1, 4.2, 1}, []float64{0.3, 0.2, 0.2, 0.3})
	if err != nil {
		b.Fatal(err)
	}
	rs, _ := phylo.NewSiteRates(phylo.RateGamma, 0.6, 0, 4)
	tree := phylo.RandomTree(phylo.TaxonNames(16), 0.1, rng)
	al, err := phylo.SimulateAlignment(tree, m, rs, 800, rng)
	if err != nil {
		b.Fatal(err)
	}
	pd, _ := al.Compile()
	lk, _ := phylo.NewLikelihood(pd, m, rs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lk.LogLikelihood(tree)
	}
	b.ReportMetric(lk.Work/float64(b.N), "cells/op")
}

// BenchmarkGASearchGeneration measures GA throughput on a small
// search.
func BenchmarkGASearchGeneration(b *testing.B) {
	rng := sim.NewRNG(2)
	m, _ := phylo.NewJC69()
	rs, _ := phylo.NewSiteRates(phylo.RateHomogeneous, 0, 0, 1)
	tree := phylo.RandomTree(phylo.TaxonNames(10), 0.1, rng)
	al, _ := phylo.SimulateAlignment(tree, m, rs, 300, rng)
	pd, _ := al.Compile()
	cfg := phylo.DefaultSearchConfig()
	cfg.MaxGenerations = 50
	cfg.StagnationGenerations = 50
	cfg.AttachmentsPerTaxon = 5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := phylo.Search(pd, m, rs, al.Names, cfg, sim.NewRNG(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestTrain measures forest training at paper scale (150
// jobs, 9 predictors).
func BenchmarkForestTrain(b *testing.B) {
	gen := workload.NewGenerator(3)
	specs, secs := gen.TrainingJobs(150)
	ds := &forest.Dataset{Schema: estimate.Schema()}
	for i := range specs {
		if err := ds.Append(estimate.Features(&specs[i]), secs[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := forest.Train(ds, forest.Config{NumTrees: 1000, MTry: 3, MinLeafSize: 5, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestPredict measures single predictions.
func BenchmarkForestPredict(b *testing.B) {
	gen := workload.NewGenerator(4)
	est, err := estimate.Bootstrap(estimate.DefaultConfig(), gen, 150)
	if err != nil {
		b.Fatal(err)
	}
	spec := gen.Job()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Predict(&spec); err != nil {
			b.Fatal(err)
		}
	}
}

// --- PR2 engine benchmarks: incremental re-evaluation + parallel scoring ---
// BENCH_PR2.json is the frozen PR2 artifact; `make bench` runs these
// at measurement quality, and `make ledger` is the live suite.

// bench50 builds a 50-taxon GTR+Γ4 nucleotide fixture for the PR2
// benchmarks.
func bench50(b *testing.B, nsites int) (*phylo.PatternData, *phylo.Model, *phylo.SiteRates, *phylo.Tree) {
	b.Helper()
	rng := sim.NewRNG(50)
	m, err := phylo.NewGTR([6]float64{1.1, 3.2, 0.8, 1.3, 4.0, 1}, []float64{0.28, 0.22, 0.26, 0.24})
	if err != nil {
		b.Fatal(err)
	}
	rs, err := phylo.NewSiteRates(phylo.RateGamma, 0.6, 0, 4)
	if err != nil {
		b.Fatal(err)
	}
	tree := phylo.RandomTree(phylo.TaxonNames(50), 0.08, rng)
	al, err := phylo.SimulateAlignment(tree, m, rs, nsites, rng)
	if err != nil {
		b.Fatal(err)
	}
	pd, err := al.Compile()
	if err != nil {
		b.Fatal(err)
	}
	return pd, m, rs, tree
}

// BenchmarkSearchEval50 measures one likelihood evaluation in the GA's
// dominant access pattern — a single branch length changed since the
// previous evaluation — on the seed full-recompute path (reference),
// the beagle backend with incremental reuse disabled, and the
// incremental engine. The incremental/full ratio is the PR's headline
// acceptance number.
func BenchmarkSearchEval50(b *testing.B) {
	pd, m, rs, tree := bench50(b, 1000)
	// A fixed mutation schedule (branch index, jitter factor) shared by
	// every engine, so all variants evaluate identical tree states.
	mrng := sim.NewRNG(77)
	const schedule = 4096
	idx := make([]int, schedule)
	factor := make([]float64, schedule)
	for i := range idx {
		idx[i] = 1 + mrng.Intn(len(tree.Nodes)-1)
		factor[i] = mrng.LogNormal(0, 0.2)
	}
	run := func(b *testing.B, ev phylo.Evaluator) {
		tr := tree.Clone()
		ev.LogLikelihood(tr) // warm buffers and caches
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := tr.Nodes[idx[i%schedule]]
			if n.Parent != nil {
				n.Length *= factor[i%schedule]
			}
			ev.LogLikelihood(tr)
		}
		b.ReportMetric(ev.TotalWork()/float64(b.N), "cells/op")
	}
	b.Run("reference", func(b *testing.B) {
		lk, err := phylo.NewLikelihood(pd, m, rs)
		if err != nil {
			b.Fatal(err)
		}
		run(b, lk)
	})
	b.Run("beagle-full", func(b *testing.B) {
		eng, err := beagle.New(pd, m, rs)
		if err != nil {
			b.Fatal(err)
		}
		eng.SetIncremental(false)
		run(b, eng)
	})
	b.Run("beagle-incremental", func(b *testing.B) {
		eng, err := beagle.New(pd, m, rs)
		if err != nil {
			b.Fatal(err)
		}
		run(b, eng)
	})
}

// BenchmarkSearch50 runs a short end-to-end 50-taxon GA search per
// iteration on each engine configuration — same seed, so the beagle
// variants follow bit-identical trajectories and the wall-clock and
// cell-update ratios are exact.
func BenchmarkSearch50(b *testing.B) {
	// 300 sites keep a full end-to-end search affordable per benchmark
	// iteration; engine ratios are pattern-count independent.
	pd, m, rs, _ := bench50(b, 300)
	cfg := phylo.DefaultSearchConfig()
	cfg.MaxGenerations = 40
	cfg.StagnationGenerations = 40
	cfg.AttachmentsPerTaxon = 4
	// Coarse termination keeps the final branch-length polish to one
	// sweep; the full-resolution run is the perf experiment's job
	// (gridbench -run perf), not the benchmark's.
	cfg.ImprovementEps = 2.0
	names := phylo.TaxonNames(50)
	run := func(b *testing.B, factory func() (phylo.Evaluator, error)) {
		var work float64
		for i := 0; i < b.N; i++ {
			ev, err := factory()
			if err != nil {
				b.Fatal(err)
			}
			res, err := phylo.SearchWith(ev, names, cfg, sim.NewRNG(9))
			if err != nil {
				b.Fatal(err)
			}
			work = res.Work
		}
		b.ReportMetric(work, "cells/search")
	}
	b.Run("reference", func(b *testing.B) {
		run(b, func() (phylo.Evaluator, error) { return phylo.NewLikelihood(pd, m, rs) })
	})
	b.Run("beagle-full", func(b *testing.B) {
		run(b, func() (phylo.Evaluator, error) {
			eng, err := beagle.New(pd, m, rs)
			if err != nil {
				return nil, err
			}
			eng.SetIncremental(false)
			return eng, nil
		})
	})
	b.Run("beagle-incremental", func(b *testing.B) {
		run(b, func() (phylo.Evaluator, error) { return beagle.New(pd, m, rs) })
	})
}

// BenchmarkParallelScore measures population scoring through an
// EvaluatorPool at several worker counts: 32 perturbed 50-taxon trees
// per op, each with one branch re-jittered between ops — a GA
// generation's access pattern. The pool is warm-started from a parent
// engine (as a search would after building the population), so no
// worker pays the transition-matrix cold start the PR2 version
// measured. Scores are bit-identical across worker counts; wall-clock
// scaling comes from the per-tree bank budget: each worker's share of
// the population must fit its engine's conditional-likelihood budget
// for revisits to be incremental.
func BenchmarkParallelScore(b *testing.B) {
	pd, m, rs, tree := bench50(b, 1000)
	rng := sim.NewRNG(11)
	base := make([]*phylo.Tree, 32)
	for i := range base {
		base[i] = tree.Clone()
		base[i].PostOrder(func(n *phylo.Node) {
			if n.Parent != nil {
				n.Length *= rng.LogNormal(0, 0.2)
			}
		})
	}
	// Fixed per-(op, tree) mutation schedule so every worker count
	// evaluates identical tree states in the same order.
	mrng := sim.NewRNG(78)
	const schedule = 512
	idx := make([]int, schedule*len(base))
	factor := make([]float64, schedule*len(base))
	for i := range idx {
		idx[i] = 1 + mrng.Intn(len(tree.Nodes)-1)
		factor[i] = mrng.LogNormal(0, 0.2)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			// Fresh clones per worker count: identical tree states and
			// fresh bank identities for every variant.
			trees := make([]*phylo.Tree, len(base))
			for i := range trees {
				trees[i] = base[i].Clone()
			}
			parent, err := beagle.New(pd, m, rs)
			if err != nil {
				b.Fatal(err)
			}
			for _, tr := range trees {
				parent.LogLikelihood(tr) // warm the shared transition cache
			}
			pool, err := phylo.NewEvaluatorPool(workers, func() (phylo.Evaluator, error) {
				return beagle.New(pd, m, rs)
			})
			if err != nil {
				b.Fatal(err)
			}
			pool.WarmStart(parent)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := (i % schedule) * len(trees)
				for k, tr := range trees {
					n := tr.Nodes[idx[s+k]]
					if n.Parent != nil {
						n.Length *= factor[s+k]
					}
				}
				pool.ScoreAll(trees)
			}
			b.ReportMetric(float64(len(trees)), "trees/op")
		})
	}
}

// BenchmarkSimEngine measures raw event throughput of the
// discrete-event kernel.
func BenchmarkSimEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		count := 0
		var tick func()
		tick = func() {
			count++
			if count < 100000 {
				eng.Schedule(1, tick)
			}
		}
		eng.Schedule(1, tick)
		eng.Run()
	}
	b.ReportMetric(100000, "events/op")
}

// BenchmarkWALScenario prices crash-consistent durability: the same
// 200-replicate hostile-schedule batch with durability off ("wal-off")
// and with every coordinator transition logged to a write-ahead log
// ("wal-on"). The pair is the PR5 overhead artifact (BENCH_PR5.json,
// frozen).
func BenchmarkWALScenario(b *testing.B) {
	for _, c := range []struct {
		name    string
		durable bool
	}{
		{"wal-off", false},
		{"wal-on", true},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := experiments.WALOverheadRun(1, c.durable)
				if err != nil {
					b.Fatal(err)
				}
				if m.Completed+m.Failed != m.Jobs {
					b.Fatalf("batch not terminal: %+v", m)
				}
			}
		})
	}
}

// BenchmarkDagWorkflow prices the workflow engine: the four-stage
// standard analysis run flat (every stage submitted up front as an
// independent batch, the way the paper's users chained submissions by
// hand) versus as one typed DAG. Reports wall time and mean
// stage-queue wait (job place wait). The pair is the PR8 artifact
// (BENCH_PR8.json, frozen).
func BenchmarkDagWorkflow(b *testing.B) {
	for _, c := range []struct {
		name   string
		useDag bool
	}{
		{"flat", false},
		{"dag", true},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, wait, err := experiments.WorkflowOverheadRun(1, c.useDag)
				if err != nil {
					b.Fatal(err)
				}
				if m.Completed+m.Failed != m.Jobs {
					b.Fatalf("stages not terminal: %+v", m)
				}
				if i == 0 {
					b.ReportMetric(m.Makespan.Hours(), "makespan-h")
					b.ReportMetric(wait.Hours(), "mean-wait-h")
				}
			}
		})
	}
}

// BenchmarkScaleOut prices coordinator sharding: 10^5 simulated users
// pushed through 1, 2, 4 and 8 coordinator shards behind the
// deterministic router. Reports virtual makespan, throughput, mean
// front-door wait and peak front-door queue depth per shard count.
// The sweep is the PR9 artifact (BENCH_PR9.json, frozen).
// BenchmarkOverloadScenario prices overload protection: a 10× demand
// spike pushed through protected 1- and 4-shard clusters (admission
// control, fair-share shedding, circuit breakers) and the unprotected
// 1-shard baseline. Reports goodput ratio, shed counts and p99
// front-door wait per configuration. The sweep is the PR10 artifact
// (BENCH_PR10.json, frozen).
func BenchmarkOverloadScenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.OverloadScenario(1)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range r.Points {
			if !p.Conserved || !p.TwinMatch {
				b.Fatalf("overload point not conserved/twin-matched: %+v", p)
			}
		}
		if i == 0 {
			b.Logf("\n%s", r)
			b.ReportMetric(r.Points[0].GoodputRatio, "goodput-1shard")
			b.ReportMetric(r.Points[1].GoodputRatio, "goodput-4shard")
			b.ReportMetric(float64(r.Points[0].ShedQuota+r.Points[0].ShedOverload), "sheds-1shard")
			b.ReportMetric(r.Points[0].P99FrontDoorWaitSeconds, "p99-wait-s")
			b.ReportMetric(r.Baseline.P99FrontDoorWaitSeconds, "baseline-p99-wait-s")
			b.ReportMetric(r.P99Blowup, "p99-blowup-x")
		}
	}
}

func BenchmarkScaleOut(b *testing.B) {
	const users = 100000
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := experiments.ScaleOutPoint(1, users, shards)
				if err != nil {
					b.Fatal(err)
				}
				if p.Completed+p.Failed != p.Jobs || !p.Conserved {
					b.Fatalf("scale point not terminal/conserved: %+v", p)
				}
				if i == 0 {
					b.ReportMetric(p.MakespanHours, "makespan-h")
					b.ReportMetric(p.ThroughputPerHour, "jobs-per-h")
					b.ReportMetric(p.MeanIngestWaitSeconds, "ingest-wait-s")
					b.ReportMetric(float64(p.PeakIngestDepth), "peak-depth")
				}
			}
		})
	}
}
