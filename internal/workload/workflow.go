package workload

import "fmt"

// WorkflowStage is one node of a workflow DAG: a replicated GARLI
// analysis plus the stages whose results it consumes. Stages travel
// with JSON tags because workflows are inputs — they ride in WAL
// records and through the portal's JSON API.
type WorkflowStage struct {
	// ID names the stage uniquely within its workflow
	// ("model-selection", "search", ...).
	ID string `json:"id"`
	// Spec is the GARLI job specification the stage replicates. The
	// stage's effective seed is derived by the workflow engine from
	// the workflow seed, the stage ID and the attempt number, so
	// Spec.Seed is only a base offset.
	Spec JobSpec `json:"spec"`
	// Replicates is the stage's fan-out width (1 for reduce stages).
	Replicates int `json:"replicates"`
	// Bootstrap marks the replicates as bootstrap resamples.
	Bootstrap bool `json:"bootstrap,omitempty"`
	// After lists the IDs of the stages this one depends on. Empty
	// means the stage is a root and is ready at submission.
	After []string `json:"after,omitempty"`
	// Short marks a setup/reduce stage whose estimate is small enough
	// that volunteer-pool turnaround would dominate its runtime: the
	// scheduler restricts such stages to service-grid resources
	// (Condor pools and clusters behind Globus gatekeepers), never
	// BOINC.
	Short bool `json:"short,omitempty"`
}

// Workflow is a typed DAG of stages submitted as one unit: the shape
// real phylogenetic analyses take (model selection feeding search
// replicates, fanning out into bootstrap resampling, reducing into a
// consensus tree) rather than the portal's flat replicate batches.
type Workflow struct {
	Name      string `json:"name"`
	UserEmail string `json:"userEmail"`
	// Seed roots every per-stage, per-attempt RNG stream the engine
	// derives; two submissions of the same workflow with the same
	// seed are bit-identical.
	Seed   int64           `json:"seed"`
	Stages []WorkflowStage `json:"stages"`
}

// Validate applies field-level checks. Graph-level validation (cycle
// and orphan detection) is the workflow engine's job — see
// internal/dag.
func (w *Workflow) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("workload: workflow has no name")
	}
	if w.UserEmail == "" {
		return fmt.Errorf("workload: workflow %s has no user email", w.Name)
	}
	if err := CheckEmail(w.UserEmail); err != nil {
		return err
	}
	if len(w.Stages) == 0 {
		return fmt.Errorf("workload: workflow %s has no stages", w.Name)
	}
	for i := range w.Stages {
		st := &w.Stages[i]
		if st.ID == "" {
			return fmt.Errorf("workload: workflow %s stage %d has no ID", w.Name, i)
		}
		if st.Replicates < 1 || st.Replicates > MaxReplicates {
			return fmt.Errorf("workload: workflow %s stage %s: %d replicates outside [1, %d]",
				w.Name, st.ID, st.Replicates, MaxReplicates)
		}
		if err := st.Spec.Validate(); err != nil {
			return fmt.Errorf("workload: workflow %s stage %s: %w", w.Name, st.ID, err)
		}
	}
	return nil
}
