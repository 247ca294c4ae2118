// Package dag is the workflow engine: it turns a typed DAG of
// analysis stages (workload.Workflow) into a sequence of grid batch
// submissions driven by readiness. Real phylogenetic analyses are
// dependency graphs, not flat replicate batches — model selection
// feeds search replicates, which fan out into bootstrap resampling
// and reduce into a consensus tree — and the engine schedules each
// stage the moment its parents finish, mapping it onto the existing
// GSBL/meta-scheduler batch path through the Runner interface.
//
// Determinism and durability follow the coordinator's house rules:
// every per-stage seed is derived from (workflow seed, stage ID,
// attempt) alone, so results are bit-identical at any parallelism;
// every stage transition is journaled through obs; and the workflow
// itself is a WAL input (via the Durability hook), so crash recovery
// re-injects it and deterministic re-execution regenerates the whole
// run mid-graph — the engine needs no snapshot state of its own.
//
// Failure handling is subtree-scoped: a stage that exhausts its
// retries fails, and its downstream subtree is skipped (never the
// independent branches, which run to completion).
package dag

import (
	"fmt"

	"lattice/internal/sim"
	"lattice/internal/workload"
)

// Validate applies graph-level checks on top of the workflow's
// field-level validation: duplicate stage IDs, references to unknown
// stages (orphan edges), and dependency cycles. It returns the
// stages in a deterministic topological order (graph order broken by
// declaration order), which the engine uses for every iteration so
// runs never depend on map layout.
func Validate(wf *workload.Workflow) ([]string, error) {
	if err := wf.Validate(); err != nil {
		return nil, err
	}
	index := make(map[string]int, len(wf.Stages))
	for i := range wf.Stages {
		id := wf.Stages[i].ID
		if _, dup := index[id]; dup {
			return nil, fmt.Errorf("dag: workflow %s has duplicate stage %s", wf.Name, id)
		}
		index[id] = i
	}
	indeg := make(map[string]int, len(wf.Stages))
	children := make(map[string][]string, len(wf.Stages))
	for i := range wf.Stages {
		st := &wf.Stages[i]
		for _, dep := range st.After {
			if _, ok := index[dep]; !ok {
				return nil, fmt.Errorf("dag: workflow %s stage %s depends on unknown stage %s",
					wf.Name, st.ID, dep)
			}
			if dep == st.ID {
				return nil, fmt.Errorf("dag: workflow %s stage %s depends on itself", wf.Name, st.ID)
			}
			indeg[st.ID]++
			children[dep] = append(children[dep], st.ID)
		}
	}
	// Kahn's algorithm with a declaration-ordered frontier.
	var order []string
	var frontier []string
	for i := range wf.Stages {
		if indeg[wf.Stages[i].ID] == 0 {
			frontier = append(frontier, wf.Stages[i].ID)
		}
	}
	for len(frontier) > 0 {
		id := frontier[0]
		frontier = frontier[1:]
		order = append(order, id)
		for _, c := range children[id] {
			indeg[c]--
			if indeg[c] == 0 {
				frontier = append(frontier, c)
			}
		}
	}
	if len(order) != len(wf.Stages) {
		var stuck []string
		for i := range wf.Stages {
			if indeg[wf.Stages[i].ID] > 0 {
				stuck = append(stuck, wf.Stages[i].ID)
			}
		}
		return nil, fmt.Errorf("dag: workflow %s has a dependency cycle through %v", wf.Name, stuck)
	}
	return order, nil
}

// StageSeed derives the deterministic seed for one attempt of one
// stage. It depends only on the workflow seed, the stage ID and the
// attempt number — never on submission order or parallelism — so a
// fan-out stage's replicates (seeded StageSeed+rep by the batch
// expansion) are bit-identical however the graph interleaves, and a
// retry draws a fresh independent stream.
func StageSeed(seed int64, stageID string, attempt int) int64 {
	return sim.DeriveSeed(seed, stageID, attempt)
}
