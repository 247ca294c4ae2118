package main

import (
	"fmt"
	"strings"
	"testing"
)

// TestRegistryShape pins the registry's contract with -list and -run:
// unique lower-case IDs, and a non-empty title and one-line
// description for every scenario.
func TestRegistryShape(t *testing.T) {
	if len(registry) == 0 {
		t.Fatal("empty registry")
	}
	seen := map[string]bool{}
	for _, e := range registry {
		if e.id == "" || e.id != strings.ToLower(e.id) || strings.ContainsAny(e.id, " ,") {
			t.Errorf("id %q: -run matching lower-cases and comma-splits its input", e.id)
		}
		if seen[e.id] {
			t.Errorf("duplicate id %q", e.id)
		}
		seen[e.id] = true
		if e.title == "" {
			t.Errorf("%s: empty title", e.id)
		}
		if e.desc == "" {
			t.Errorf("%s: empty description", e.id)
		}
		if strings.Contains(e.desc, "\n") {
			t.Errorf("%s: description must be one line", e.id)
		}
		if e.fn == nil {
			t.Errorf("%s: nil runner", e.id)
		}
	}
	for _, id := range []string{"fig2", "faults", "crash", "dag", "scale"} {
		if !seen[id] {
			t.Errorf("registry lost the %q scenario", id)
		}
	}
	// A misspelled ID among valid ones refuses the whole selector —
	// every unknown named — before the valid ones run.
	ran := false
	registry = append(registry, experiment{id: "probe", fn: func(int64) (fmt.Stringer, error) {
		ran = true
		return nil, fmt.Errorf("probe ran")
	}})
	defer func() { registry = registry[:len(registry)-1] }()
	err := runSelected("probe, typo,E44", 1, false)
	if err == nil || ran || !strings.Contains(err.Error(), `"typo"`) || !strings.Contains(err.Error(), `"e44"`) {
		t.Errorf("runSelected with unknown IDs: err = %v, probe ran = %v; want both named and nothing run", err, ran)
	}
}
