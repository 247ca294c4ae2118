// Package lattice is the public API of the Lattice grid computing
// system — a from-scratch Go reproduction of "Computing the Tree of
// Life: Leveraging the Power of Desktop and Service Grids" (Bazinet &
// Cummings, 2011).
//
// The system combines service grids (Condor pools and PBS/SGE clusters
// federated through Globus-style middleware) with a BOINC desktop grid,
// schedules GARLI maximum-likelihood phylogenetic analyses across the
// federation, and predicts job runtimes a priori with random forests to
// drive placement, BOINC deadlines, and replicate bundling.
//
// Quick start:
//
//	cfg := lattice.DefaultConfig(42)
//	grid, err := lattice.New(cfg)
//	if err != nil { ... }
//	batch, err := grid.SubmitSubmission(lattice.Submission{ ... })
//	grid.Run(30 * lattice.Day)
//
// The heavy lifting lives in the internal packages; this package
// re-exports what the examples use:
//
//   - grid assembly and operation (internal/core)
//   - GARLI job specifications and workload generation
//     (internal/workload)
//   - runtime estimation with random forests (internal/estimate)
//   - the data type, rate and starting-tree settings of a job
//     (internal/phylo)
package lattice

import (
	"lattice/internal/core"
	"lattice/internal/estimate"
	"lattice/internal/forest"
	"lattice/internal/phylo"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// Grid assembly and operation.
type (
	// Config describes a Lattice deployment (resources, scheduler
	// policy, estimator bootstrap).
	Config = core.Config
	// Lattice is a running grid system.
	Lattice = core.Lattice
)

// New assembles and starts a grid from a configuration.
func New(cfg Config) (*Lattice, error) { return core.New(cfg) }

// DefaultConfig returns the paper's federation at laptop scale.
func DefaultConfig(seed int64) Config { return core.DefaultConfig(seed) }

// Workload: GARLI jobs and submissions.
type (
	// JobSpec is a GARLI analysis specification; its nine parameters
	// are the runtime model's predictors.
	JobSpec = workload.JobSpec
	// Submission is a portal submission of up to 2000 replicates.
	Submission = workload.Submission
	// Generator draws jobs/submissions from the portal's user
	// population.
	Generator = workload.Generator
)

// NewGenerator returns a deterministic workload generator.
func NewGenerator(seed int64) *Generator { return workload.NewGenerator(seed) }

// Runtime estimation.
type (
	// Estimator predicts GARLI runtimes with a random forest and
	// retrains continuously.
	Estimator = estimate.Estimator
	// EstimatorConfig sizes the forest.
	EstimatorConfig = forest.Config
)

// BootstrapEstimator seeds and trains an estimator with n generated
// jobs (the paper's ~150-job matrix).
func BootstrapEstimator(cfg EstimatorConfig, gen *Generator, n int) (*Estimator, error) {
	return estimate.Bootstrap(cfg, gen, n)
}

// Nucleotide is the data type of the examples' jobs.
const Nucleotide = phylo.Nucleotide

// Rate heterogeneity treatments.
const (
	RateHomogeneous = phylo.RateHomogeneous
	RateGamma       = phylo.RateGamma
	RateGammaInv    = phylo.RateGammaInv
)

// StartStepwise builds a search's initial tree by stepwise addition.
const StartStepwise = phylo.StartStepwise

// Virtual time units for Lattice.Run.
const (
	Hour = sim.Hour
	Day  = sim.Day
)
