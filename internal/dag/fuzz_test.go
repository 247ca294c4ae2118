package dag

import (
	"encoding/json"
	"slices"
	"testing"

	"lattice/internal/workload"
)

// FuzzValidate feeds arbitrary workflow JSON to Validate: it must return
// an error or an order, never panic; an accepted workflow's order is a
// permutation of its stage IDs with every stage after each stage it
// depends on; and a second call returns the same order.
func FuzzValidate(f *testing.F) {
	add := func(wf workload.Workflow) {
		data, err := json.Marshal(wf)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	add(diamond(7))
	stage := func(id string, after ...string) workload.WorkflowStage {
		return workload.WorkflowStage{ID: id, Spec: testSpec(), Replicates: 1, After: after}
	}
	for _, stages := range [][]workload.WorkflowStage{
		{stage("a"), stage("a")},
		{stage("a", "ghost")},
		{stage("a", "a")},
		{stage("a", "b"), stage("b", "a")},
		{stage("c", "b", "a"), stage("b", "a"), stage("a"), stage("d", "a", "a")},
		nil,
	} {
		add(workload.Workflow{Name: "w", UserEmail: "u@example.edu", Stages: stages})
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"w","userEmail":"u@x","stages":[{"id":"a","replicates":1,"after":["a"]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var wf workload.Workflow
		if json.Unmarshal(data, &wf) != nil {
			return
		}
		order, err := Validate(&wf)
		if err != nil {
			return
		}
		if len(order) != len(wf.Stages) {
			t.Fatalf("order %q has %d entries for %d stages", order, len(order), len(wf.Stages))
		}
		pos := make(map[string]int, len(order))
		for i, id := range order {
			if _, dup := pos[id]; dup {
				t.Fatalf("order %q names %q twice", order, id)
			}
			pos[id] = i
		}
		for _, st := range wf.Stages {
			at, ok := pos[st.ID]
			if !ok {
				t.Fatalf("order %q misses stage %q", order, st.ID)
			}
			for _, dep := range st.After {
				if pos[dep] >= at {
					t.Fatalf("order %q puts %q before its dependency %q", order, st.ID, dep)
				}
			}
		}
		again, err := Validate(&wf)
		if err != nil || !slices.Equal(again, order) {
			t.Fatalf("second Validate = %q, %v; first %q", again, err, order)
		}
	})
}
