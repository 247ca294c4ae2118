package phylo

import (
	"bytes"
	"strings"
	"testing"
)

func runnerFixture(t *testing.T) (*searchFixture, SearchConfig) {
	fx := newSearchFixture(t, 7, 300, 900)
	cfg := quickConfig()
	cfg.SearchReps = 1
	return fx, cfg
}

func TestRunnerCompletes(t *testing.T) {
	fx, cfg := runnerFixture(t)
	r, err := NewRunner(fx.pd, fx.model, fx.rates, fx.al.Names, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for !r.Step(10) {
		steps++
		if steps > 1000 {
			t.Fatal("runner never terminated")
		}
	}
	tree, logL := r.Best()
	if tree == nil || logL >= 0 {
		t.Fatalf("bad result: %v %v", tree, logL)
	}
	if !r.Step(0) {
		t.Error("Step reports an unfinished search after completion")
	}
}

func TestRunnerProgressMonotonic(t *testing.T) {
	fx, cfg := runnerFixture(t)
	r, err := NewRunner(fx.pd, fx.model, fx.rates, fx.al.Names, cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	last := r.Progress()
	if last < 0 || last > 1 {
		t.Fatalf("initial progress %v", last)
	}
	for !r.Step(5) {
		p := r.Progress()
		if p < last {
			t.Fatalf("progress went backward: %v → %v", last, p)
		}
		last = p
	}
	if r.Progress() < last {
		t.Error("final progress below last observed")
	}
}

func TestCheckpointSaveLoadResume(t *testing.T) {
	fx, cfg := runnerFixture(t)
	r, err := NewRunner(fx.pd, fx.model, fx.rates, fx.al.Names, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	r.Step(15)
	genAtSave := r.Generation()
	_, logLAtSave := r.Best()
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}

	r2, err := LoadRunner(&buf, fx.pd, fx.model, fx.rates, fx.al.Names, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Generation() != genAtSave {
		t.Errorf("restored generation %d, want %d", r2.Generation(), genAtSave)
	}
	_, logL2 := r2.Best()
	if !almostEqual(logL2, logLAtSave, 1e-9) {
		t.Errorf("restored best logL %v, want %v", logL2, logLAtSave)
	}
	for !r2.Step(20) {
	}
	_, final := r2.Best()
	if final < logLAtSave-1e-9 {
		t.Errorf("resumed search got worse: %v < %v", final, logLAtSave)
	}
}

func TestCheckpointDeterministicResume(t *testing.T) {
	fx, cfg := runnerFixture(t)
	r, err := NewRunner(fx.pd, fx.model, fx.rates, fx.al.Names, cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	r.Step(10)
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.String()

	finish := func() (float64, string) {
		rr, err := LoadRunner(strings.NewReader(saved), fx.pd, fx.model, fx.rates, fx.al.Names, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for !rr.Step(50) {
		}
		tree, logL := rr.Best()
		return logL, tree.Newick()
	}
	l1, n1 := finish()
	l2, n2 := finish()
	if l1 != l2 || n1 != n2 {
		t.Error("two resumes from the same checkpoint diverged")
	}
}

func TestCheckpointCorruptInputs(t *testing.T) {
	fx, cfg := runnerFixture(t)
	cases := []string{
		"",
		"{}",
		`{"version": 99, "trees": ["(a,b,c);"], "logls": [1]}`,
		`{"version": 1, "trees": ["(a,b,c);"], "logls": []}`,
		`{"version": 1, "trees": ["((("], "logls": [1]}`,
	}
	for _, in := range cases {
		if _, err := LoadRunner(strings.NewReader(in), fx.pd, fx.model, fx.rates, fx.al.Names, cfg); err == nil {
			t.Errorf("expected error for checkpoint %q", in)
		}
	}
}
