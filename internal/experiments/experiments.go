// Package experiments regenerates every quantitative artifact of the
// paper's evaluation: Figure 2 (variable importance), the text's
// headline statistics (~93% variance explained, cross-validation
// quality), and the behavioural claims behind the scheduler design
// (ranking criteria, stability gating, estimate-driven BOINC deadlines
// and work-fetch, replicate bundling, portal-scale batching, system
// scale, continuous retraining, and the checkpoint-cycling alternative
// the paper declined). Each experiment is a pure function from a seed
// to a result struct with a printable table: the gridbench binary
// prints it, the shape tests compare it byte for byte with
// testdata/<id>.golden. What a run costs is not measured here but by
// the ledger (bench/, `make ledger`).
package experiments

import (
	"fmt"
	"strings"

	"lattice/internal/boinc"
	"lattice/internal/core"
	"lattice/internal/estimate"
	"lattice/internal/metasched"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// table formats aligned rows.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// hours renders a duration in hours.
func hours(d sim.Duration) string { return fmt.Sprintf("%.1f h", d.Hours()) }

// BatchMetrics summarizes one workload run through a grid.
type BatchMetrics struct {
	Jobs      int
	Completed int
	Failed    int
	Makespan  sim.Duration
	// P95Completion is the time until 95% of jobs finished — the
	// tail-insensitive batch latency (desktop-grid stragglers can
	// stretch the true makespan arbitrarily; both the paper's system
	// and ours reissue them).
	P95Completion sim.Duration
	MeanTurnround sim.Duration
	// UsefulCPUHours and WastedCPUHours aggregate resource-side
	// accounting (reference-scaled CPU time).
	UsefulCPUHours float64
	WastedCPUHours float64
	Preemptions    int
	// Exposition is the grid's final /metrics snapshot in text
	// exposition format — the observability view of the same run,
	// deterministic for a fixed seed.
	Exposition string
}

// standardFederation is the paper's default federation with the given
// scheduler policy, estimator training-matrix size and volunteer-pool
// population.
func standardFederation(sched metasched.Config, trainJobs, boincHosts int) func(seed int64) core.Config {
	return func(seed int64) core.Config {
		cfg := core.DefaultConfig(seed)
		cfg.Scheduler = sched
		cfg.TrainingJobs = trainJobs
		for i := range cfg.Resources {
			if cfg.Resources[i].Kind == "boinc" {
				pop := boinc.DefaultPopulation(boincHosts)
				cfg.Resources[i].Population = &pop
			}
		}
		return cfg
	}
}

// gridScenario is the shape every flat grid experiment shares: one
// coordinator, a batch workload, observed every six hours until every
// batch is terminal.
func gridScenario(federation func(seed int64) core.Config, load func(*run) error, deadline sim.Duration) scenario {
	return scenario{
		federation: federation,
		step:       6 * sim.Hour,
		deadline:   deadline,
		load:       load,
		done:       batchesDone,
	}
}

// predicting wraps a load so the scheduler plans with p instead of the
// coordinator's trained model.
func predicting(p metasched.Predictor, load func(*run) error) func(*run) error {
	return func(r *run) error {
		r.lats[0].Scheduler.SetPredictor(p)
		return load(r)
	}
}

// standardWorkload draws n submissions from the portal population with
// replicate counts clamped for experiment runtime.
func standardWorkload(seed int64, n, maxReplicates int) []workload.Submission {
	gen := workload.NewGenerator(seed)
	subs := make([]workload.Submission, 0, n)
	for i := 0; i < n; i++ {
		sub := gen.Submission()
		if sub.Replicates > maxReplicates {
			sub.Replicates = maxReplicates
		}
		subs = append(subs, sub)
	}
	return subs
}

// oraclePredictor predicts the spec's expected work exactly (modulo
// run-to-run noise) — used where an experiment needs to isolate
// scheduling behaviour from model error.
type oraclePredictor struct{}

func (oraclePredictor) Predict(spec *workload.JobSpec) (float64, error) {
	return workload.ReferenceSeconds(spec.ExpectedWork()), nil
}

// estimatorFor builds a trained estimator outside a Lattice.
func estimatorFor(seed int64, trainJobs, trees int) (*estimate.Estimator, error) {
	cfg := estimate.DefaultConfig()
	cfg.Seed = seed
	if trees > 0 {
		cfg.NumTrees = trees
	}
	return estimate.Bootstrap(cfg, workload.NewGenerator(seed), trainJobs)
}
