package experiments

import (
	"fmt"

	"lattice/internal/lrm"
	"lattice/internal/lrm/cluster"
	"lattice/internal/lrm/condor"
	"lattice/internal/metasched"
	"lattice/internal/phylo"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// RankingResult is E4: naive vs speed-aware vs full ranking on the
// same workload.
type RankingResult struct {
	Rows    [][]string
	Results map[string]BatchMetrics
}

// SchedulerRanking runs an identical mixed workload under each
// scheduling policy and compares makespan, turnaround and waste —
// Section V-A's claim that the naive algorithm "does not use resources
// very efficiently".
func SchedulerRanking(seed int64) (*RankingResult, error) {
	res := &RankingResult{Results: make(map[string]BatchMetrics)}
	for _, pol := range []metasched.Policy{metasched.PolicyNaive, metasched.PolicySpeedAware, metasched.PolicyFull} {
		sched := metasched.DefaultConfig()
		sched.Policy = pol
		subs := standardWorkload(seed+7, 40, 60)
		m, err := measure(gridScenario(standardFederation(sched, 120, 150), paced(subs, 15*sim.Minute), 90*sim.Day), seed)
		if err != nil {
			return nil, err
		}
		res.Results[pol.String()] = m
		res.Rows = append(res.Rows, []string{
			pol.String(),
			hours(m.Makespan),
			hours(m.MeanTurnround),
			fmt.Sprintf("%d/%d", m.Completed, m.Jobs),
			fmt.Sprintf("%.0f", m.WastedCPUHours),
			fmt.Sprintf("%d", m.Preemptions),
		})
	}
	return res, nil
}

func (r *RankingResult) String() string {
	return "E4 — grid-level scheduler ranking policies, identical workload\n" +
		table([]string{"policy", "makespan", "mean turnaround", "completed", "wasted CPU-h", "preemptions"}, r.Rows)
}

// GatingResult is E5: the stability criterion on a long-job workload.
type GatingResult struct {
	Rows    [][]string
	Results map[string]BatchMetrics
}

// StabilityGating compares speed-aware scheduling with and without the
// stability gate on a workload that includes many long jobs: without
// the gate, long jobs land on Condor pools and thrash.
func StabilityGating(seed int64) (*GatingResult, error) {
	res := &GatingResult{Results: make(map[string]BatchMetrics)}
	cases := []struct {
		name   string
		policy metasched.Policy
	}{
		{"no gating (speed-aware)", metasched.PolicySpeedAware},
		{"estimate gating (full)", metasched.PolicyFull},
	}
	for _, c := range cases {
		sched := metasched.DefaultConfig()
		sched.Policy = c.policy
		// Long-job-heavy workload: multi-replicate analyses of large
		// alignments, each 10-35 h on the reference computer, enough
		// of them to overflow the stable clusters so placement policy
		// matters. Arrivals are spaced so the scheduler reacts to
		// evolving load.
		subs := make([]workload.Submission, 30)
		for i := range subs {
			subs[i] = workload.Submission{
				Spec: workload.JobSpec{
					DataType: phylo.Nucleotide, SubstModel: "GTR",
					RateHet: phylo.RateGamma, NumRateCats: 4, GammaShape: 0.5,
					NumTaxa: 180 + (i*37)%160, SeqLength: 4800,
					SearchReps: 4, StartingTree: phylo.StartStepwise,
					AttachmentsPerTaxon: 25, Seed: seed + int64(i),
				},
				Replicates: 4,
				UserEmail:  fmt.Sprintf("user%d@lab.edu", i%5),
			}
		}
		// Isolate the gating *mechanism* from model quality: use exact
		// expected-work estimates (E3 measures the model-quality
		// effect; random forests cannot extrapolate to job sizes far
		// outside their training population).
		load := predicting(oraclePredictor{}, paced(subs, 20*sim.Minute))
		m, err := measure(gridScenario(standardFederation(sched, 120, 150), load, 120*sim.Day), seed)
		if err != nil {
			return nil, err
		}
		res.Results[c.name] = m
		res.Rows = append(res.Rows, []string{
			c.name,
			hours(m.Makespan),
			fmt.Sprintf("%d/%d", m.Completed, m.Jobs),
			fmt.Sprintf("%.0f", m.WastedCPUHours),
			fmt.Sprintf("%d", m.Preemptions),
		})
	}
	return res, nil
}

func (r *GatingResult) String() string {
	return "E5 — stability gating (unstable resources refuse jobs estimated > 10 h)\n" +
		table([]string{"configuration", "makespan", "completed", "wasted CPU-h", "preemptions"}, r.Rows)
}

// EstimatorEffectResult is E3b: scheduling with the trained model vs
// estimate-blind.
type EstimatorEffectResult struct {
	Rows    [][]string
	Results map[string]BatchMetrics
}

// SchedulingEffect contrasts the full scheduler with and without the
// runtime model — the paper's claim that CV-quality predictions
// "greatly improve scheduling effectiveness". The workload mixes the
// routine population with the long analyses whose placement the
// estimates actually protect, and the model is trained on a matrix
// covering that spectrum (as the production system's matrix of real
// jobs did).
func SchedulingEffect(seed int64) (*EstimatorEffectResult, error) {
	res := &EstimatorEffectResult{Results: make(map[string]BatchMetrics)}
	longSpec := func(i int) workload.JobSpec {
		return workload.JobSpec{
			DataType: phylo.Nucleotide, SubstModel: "GTR",
			RateHet: phylo.RateGamma, NumRateCats: 4, GammaShape: 0.5,
			NumTaxa: 170 + (i*53)%170, SeqLength: 4500,
			SearchReps: 4, StartingTree: phylo.StartStepwise,
			AttachmentsPerTaxon: 25, Seed: seed + int64(1000+i),
		}
	}
	for _, withModel := range []bool{false, true} {
		sched := metasched.DefaultConfig()
		name := "no estimates"
		if withModel {
			name = "random-forest estimates"
		}
		subs := standardWorkload(seed+19, 16, 20)
		for i := 0; i < 12; i++ {
			subs = append(subs, workload.Submission{
				Spec: longSpec(i), Replicates: 3,
				UserEmail: fmt.Sprintf("atol%d@lab.edu", i%3),
			})
		}
		load := paced(subs, 15*sim.Minute)
		if withModel {
			est, err := estimatorFor(seed, 120, 0)
			if err != nil {
				return nil, err
			}
			// The production matrix covers the big AToL analyses too;
			// add observed runtimes for that job family.
			obsRNG := sim.NewRNG(seed + 2)
			for k := 0; k < 40; k++ {
				spec := longSpec(k * 3)
				if err := est.AddObservation(&spec, workload.ReferenceSeconds(spec.SampleWork(obsRNG))); err != nil {
					return nil, err
				}
			}
			if err := est.Retrain(); err != nil {
				return nil, err
			}
			load = predicting(est, load)
		}
		m, err := measure(gridScenario(standardFederation(sched, 0, 150), load, 120*sim.Day), seed)
		if err != nil {
			return nil, err
		}
		res.Results[name] = m
		res.Rows = append(res.Rows, []string{
			name,
			hours(m.Makespan),
			hours(m.MeanTurnround),
			fmt.Sprintf("%d/%d", m.Completed, m.Jobs),
			fmt.Sprintf("%.0f", m.WastedCPUHours),
		})
	}
	return res, nil
}

func (r *EstimatorEffectResult) String() string {
	return "E3 — scheduling with vs without a priori runtime estimates\n" +
		table([]string{"configuration", "makespan", "mean turnaround", "completed", "wasted CPU-h"}, r.Rows)
}

// CalibrationResult is E6: measured vs configured resource speeds.
type CalibrationResult struct {
	Rows [][]string
	// MaxRelError is the largest |measured-true|/true across
	// resources.
	MaxRelError float64
}

// SpeedCalibration builds resources of known speeds and recovers them
// with the paper's benchmark-job procedure.
func SpeedCalibration(seed int64) (*CalibrationResult, error) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(seed)
	res := &CalibrationResult{}
	type target struct {
		name  string
		lrm   lrm.LRM
		true_ float64
	}
	var targets []target
	for _, spec := range []struct {
		name  string
		speed float64
	}{
		{"reference-clone", 1.0}, {"fast-cluster", 2.0}, {"old-cluster", 0.5}, {"mid-cluster", 1.3},
	} {
		c, err := cluster.New(eng, cluster.Config{
			Kind: "pbs", Name: spec.name, Platform: lrm.LinuxX86,
			Nodes: []cluster.NodeClass{{Count: 4, Cores: 1, Speed: spec.speed, MemoryMB: 2048}},
		})
		if err != nil {
			return nil, err
		}
		targets = append(targets, target{spec.name, c, spec.speed})
	}
	// An idle Condor pool with heterogeneous machines: calibration
	// averages over its members.
	machines := make([]condor.Machine, 6)
	for i := range machines {
		machines[i] = condor.Machine{
			Speed: 0.6 + 0.2*float64(i%3), MemoryMB: 2048, Platform: lrm.LinuxX86,
			MeanOwnerAway: 1000 * sim.Hour, MeanOwnerBusy: sim.Minute,
		}
	}
	pool, err := condor.New(eng, rng, condor.Config{Name: "hetero-pool", Machines: machines})
	if err != nil {
		return nil, err
	}
	targets = append(targets, target{"hetero-pool", pool, 0.8}) // mean of 0.6/0.8/1.0

	for _, tg := range targets {
		measured, err := metasched.Calibrate(eng, tg.lrm, 600, 4, 10*sim.Day)
		if err != nil {
			return nil, err
		}
		rel := abs(measured-tg.true_) / tg.true_
		if rel > res.MaxRelError {
			res.MaxRelError = rel
		}
		res.Rows = append(res.Rows, []string{
			tg.name,
			fmt.Sprintf("%.2f", tg.true_),
			fmt.Sprintf("%.2f", measured),
			fmt.Sprintf("%.1f%%", 100*rel),
		})
	}
	return res, nil
}

func (r *CalibrationResult) String() string {
	return "E6 — resource speed measurement against the reference computer (speed 1.0)\n" +
		table([]string{"resource", "true speed", "measured", "error"}, r.Rows)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
