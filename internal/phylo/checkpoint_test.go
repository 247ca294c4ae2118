package phylo

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"lattice/internal/sim"
)

func runnerFixture(t testing.TB) (*searchFixture, SearchConfig) {
	fx := newSearchFixture(t, 7, 300, 900)
	cfg := quickConfig()
	cfg.SearchReps = 1
	return fx, cfg
}

func TestRunnerCompletes(t *testing.T) {
	fx, cfg := runnerFixture(t)
	r, err := NewRunner(fx.engine(t), fx.al.Names, cfg, 5)
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
	r, err := NewRunner(fx.engine(t), fx.al.Names, cfg, 6)
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
	r, err := NewRunner(fx.engine(t), fx.al.Names, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	r.Step(15)
	genAtSave := r.Generation()
	treeAtSave, _ := r.Best()
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}

	r2, err := LoadRunner(&buf, fx.engine(t), fx.al.Names, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Generation() != genAtSave {
		t.Errorf("restored generation %d, want %d", r2.Generation(), genAtSave)
	}
	// The saved trees are %.8g Newick, so the restored best is the saved
	// tree as read back, scored by the engine, not the stored score.
	tree2, logL2 := r2.Best()
	if want := fx.engine(t).LogLikelihood(tree2); tree2.Newick() != treeAtSave.Newick() || logL2 != want {
		t.Errorf("restored best %.10f %s, want %.10f %s", logL2, tree2.Newick(), want, treeAtSave.Newick())
	}
	// The search resumes from that rescored best, and a GA's best never
	// falls: the final score is held to it exactly.
	for !r2.Step(20) {
	}
	_, final := r2.Best()
	if final < logL2 {
		t.Errorf("resumed search got worse: %v < %v", final, logL2)
	}
}

func TestCheckpointDeterministicResume(t *testing.T) {
	fx, cfg := runnerFixture(t)
	r, err := NewRunner(fx.engine(t), fx.al.Names, cfg, 8)
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
		rr, err := LoadRunner(strings.NewReader(saved), fx.engine(t), fx.al.Names, cfg)
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

// checkpointErrorInputs are checkpoints LoadRunner must refuse for the
// runner fixture's seven taxa and four individuals; FuzzLoadRunner
// starts from them too.
var checkpointErrorInputs = []string{
	"",
	"{}",
	`{"version": 99, "trees": ["(a,b,c);"], "logls": [1]}`,
	`{"version": 1, "trees": ["(a,b,c);"], "logls": []}`,
	`{"version": 1, "trees": ["((("], "logls": [1]}`,
	// Three of the seven taxa, with a score no full tree reaches.
	`{"version": 1, "trees": ["(taxon00,taxon01,taxon02);"], "logls": [-10]}`,
	// Complete trees, but one individual of a population of four.
	`{"version": 1, "trees": ["((taxon00,taxon01),(taxon02,taxon03),(taxon04,(taxon05,taxon06)));"], "logls": [-1500]}`,
	// A unary internal node.
	`{"version": 1, "trees": ["((taxon00),taxon01,(taxon02,taxon03),(taxon04,(taxon05,taxon06)));", "((taxon00,taxon01),(taxon02,taxon03),(taxon04,(taxon05,taxon06)));", "((taxon00,taxon01),(taxon02,taxon03),(taxon04,(taxon05,taxon06)));", "((taxon00,taxon01),(taxon02,taxon03),(taxon04,(taxon05,taxon06)));"], "logls": [-1500, -1500, -1500, -1500]}`,
	// A negative generation count.
	`{"version": 1, "generation": -5, "trees": ["((taxon00,taxon01),(taxon02,taxon03),(taxon04,(taxon05,taxon06)));", "((taxon00,taxon01),(taxon02,taxon03),(taxon04,(taxon05,taxon06)));", "((taxon00,taxon01),(taxon02,taxon03),(taxon04,(taxon05,taxon06)));", "((taxon00,taxon01),(taxon02,taxon03),(taxon04,(taxon05,taxon06)));"], "logls": [-1500, -1500, -1500, -1500]}`,
}

func TestCheckpointCorruptInputs(t *testing.T) {
	fx, cfg := runnerFixture(t)
	for _, in := range checkpointErrorInputs {
		if _, err := LoadRunner(strings.NewReader(in), fx.engine(t), fx.al.Names, cfg); err == nil {
			t.Errorf("expected error for checkpoint %q", in)
		}
	}
}

// TestRunnerIsSearchWith pins the one GA replicate: an uninterrupted
// Runner stepped to its end is SearchWith's lone replicate on the same
// stream, final polish included, and a finished runner resumes from
// its checkpoint as finished, without a second polish.
func TestRunnerIsSearchWith(t *testing.T) {
	fx, cfg := runnerFixture(t)
	for seed := int64(5); seed <= 8; seed++ {
		r, err := NewRunner(fx.engine(t), fx.al.Names, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Step(cfg.MaxGenerations) {
			t.Fatalf("seed %d: runner unfinished after MaxGenerations steps", seed)
		}
		tree, logL := r.Best()
		res, err := SearchWith(fx.engine(t), fx.al.Names, cfg, sim.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		if tree.Newick() != res.BestTree.Newick() || logL != res.BestLogL {
			t.Errorf("seed %d: runner ends at %.4f %s, SearchWith at %.4f %s",
				seed, logL, tree.Newick(), res.BestLogL, res.BestTree.Newick())
		}

		var buf bytes.Buffer
		if err := r.Save(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := LoadRunner(&buf, fx.engine(t), fx.al.Names, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Step(0) {
			t.Errorf("seed %d: a finished checkpoint resumes unfinished", seed)
		}
		// Unpolished again, it holds the saved tree as read back, at
		// the engine's score.
		saved, err := ParseNewick(tree.Newick(), consensusTaxa(fx.al.Names))
		if err != nil {
			t.Fatal(err)
		}
		want := fx.engine(t).LogLikelihood(saved)
		if bt, bl := back.Best(); bt.Newick() != tree.Newick() || bl != want {
			t.Errorf("seed %d: finished checkpoint resumed to %.6f %s, saved %.6f %s",
				seed, bl, bt.Newick(), want, tree.Newick())
		}
	}
}

// TestUnpolishedCheckpointIsPolished: a checkpoint at termination that
// records no polish gets the final branch-length polish on resume.
func TestUnpolishedCheckpointIsPolished(t *testing.T) {
	fx, cfg := runnerFixture(t)
	r, err := NewRunner(fx.engine(t), fx.al.Names, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r.Step(15) {
		t.Fatal("search finished before the checkpoint")
	}
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var cp checkpointFile
	if err := json.Unmarshal(buf.Bytes(), &cp); err != nil {
		t.Fatal(err)
	}
	cp.Generation = cfg.MaxGenerations
	raw, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadRunner(bytes.NewReader(raw), fx.engine(t), fx.al.Names, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, before := back.Best()
	if !back.Step(0) {
		t.Fatal("a checkpoint at MaxGenerations resumes unfinished")
	}
	if _, after := back.Best(); !(after > before) {
		t.Errorf("resumed at termination without a polish: lnL %.6f, checkpoint %.6f", after, before)
	}
}

// TestRunnerIsOneReplicate: a Runner is one search replicate, so both
// constructors refuse a config asking for several.
func TestRunnerIsOneReplicate(t *testing.T) {
	fx, cfg := runnerFixture(t)
	r, err := NewRunner(fx.engine(t), fx.al.Names, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cfg.SearchReps = 5
	if _, err := NewRunner(fx.engine(t), fx.al.Names, cfg, 5); err == nil {
		t.Error("NewRunner accepted SearchReps = 5")
	}
	if _, err := LoadRunner(&buf, fx.engine(t), fx.al.Names, cfg); err == nil {
		t.Error("LoadRunner accepted SearchReps = 5")
	}
}

// TestLoadRunnerRescores: four complete trees that claim lnL −10 load
// at the engine's scores, and the stagnation counter runs from the
// rescored best, so the search improves on it instead of stopping after
// StagnationGenerations generations without an improvement on −10.
func TestLoadRunnerRescores(t *testing.T) {
	fx, cfg := runnerFixture(t)
	r, err := NewRunner(fx.engine(t), fx.al.Names, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var cp checkpointFile
	if err := json.Unmarshal(buf.Bytes(), &cp); err != nil {
		t.Fatal(err)
	}
	cp.Best = -10
	for i := range cp.LogLs {
		cp.LogLs[i] = -10
	}
	raw, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadRunner(bytes.NewReader(raw), fx.engine(t), fx.al.Names, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev := fx.engine(t)
	for i, ind := range back.pop {
		if want := ev.LogLikelihood(ind.tree); ind.logL != want {
			t.Errorf("individual %d loaded at lnL %v, the engine scores it %v", i, ind.logL, want)
		}
	}
	_, loaded := back.Best()
	for !back.Step(cfg.MaxGenerations) {
	}
	if _, final := back.Best(); !(final > loaded+cfg.ImprovementEps) || back.Generation() <= cfg.StagnationGenerations {
		t.Errorf("resumed search ended at generation %d, lnL %.4f, from a loaded best of %.4f",
			back.Generation(), final, loaded)
	}
}
