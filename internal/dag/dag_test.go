package dag

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lattice/internal/obs"
	"lattice/internal/phylo"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

func testSpec() workload.JobSpec {
	return workload.JobSpec{
		DataType:            phylo.Nucleotide,
		SubstModel:          "HKY85",
		RateHet:             phylo.RateHomogeneous,
		NumTaxa:             12,
		SeqLength:           600,
		SearchReps:          1,
		StartingTree:        phylo.StartStepwise,
		AttachmentsPerTaxon: 25,
	}
}

func diamond(seed int64) workload.Workflow {
	return StandardAnalysis("test-analysis", "user@example.edu", seed, testSpec(), 3, 5)
}

func TestValidateTopoOrder(t *testing.T) {
	wf := diamond(7)
	order, err := Validate(&wf)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"model-selection", "search", "bootstrap", "consensus"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("topological order = %v, want %v", order, want)
	}
}

func TestValidateRejects(t *testing.T) {
	stage := func(id string, after ...string) workload.WorkflowStage {
		return workload.WorkflowStage{ID: id, Spec: testSpec(), Replicates: 1, After: after}
	}
	cases := []struct {
		name   string
		stages []workload.WorkflowStage
		want   string
	}{
		{"duplicate", []workload.WorkflowStage{stage("a"), stage("a")}, "duplicate stage"},
		{"unknown dep", []workload.WorkflowStage{stage("a", "ghost")}, "unknown stage"},
		{"self dep", []workload.WorkflowStage{stage("a", "a")}, "depends on itself"},
		{"cycle", []workload.WorkflowStage{stage("a", "b"), stage("b", "a")}, "cycle"},
		{"empty", nil, "no stages"},
	}
	for _, tc := range cases {
		wf := workload.Workflow{Name: "w", UserEmail: "u@example.edu", Stages: tc.stages}
		if _, err := Validate(&wf); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestStageSeed(t *testing.T) {
	a := StageSeed(42, "search", 1)
	if a != StageSeed(42, "search", 1) {
		t.Fatal("StageSeed not deterministic")
	}
	if a < 0 {
		t.Fatalf("StageSeed = %d, want non-negative", a)
	}
	if a == StageSeed(42, "bootstrap", 1) || a == StageSeed(42, "search", 2) || a == StageSeed(43, "search", 1) {
		t.Fatal("StageSeed collides across stage/attempt/seed")
	}
}

// scriptedRunner fakes the gsbl batch path: each stage submission is
// recorded and completes after a per-stage virtual delay, failing one
// job for as many attempts as scripted.
type scriptedRunner struct {
	eng   *sim.Engine
	subs  []workload.Submission
	ids   []string // "runID/stageID" per submission, in order
	seeds []int64
	fail  map[string]int // stageID -> failing attempts remaining
	delay map[string]sim.Duration
}

func newScriptedRunner(eng *sim.Engine) *scriptedRunner {
	return &scriptedRunner{eng: eng, fail: map[string]int{}, delay: map[string]sim.Duration{}}
}

func (r *scriptedRunner) RunStage(runID, stageID string, sub workload.Submission, done func(completed, failed int)) (string, error) {
	r.subs = append(r.subs, sub)
	r.ids = append(r.ids, runID+"/"+stageID)
	r.seeds = append(r.seeds, sub.Spec.Seed)
	id := fmt.Sprintf("batch-%03d", len(r.subs))
	d := r.delay[stageID]
	if d == 0 {
		d = sim.Hour
	}
	failing := false
	if r.fail[stageID] > 0 {
		r.fail[stageID]--
		failing = true
	}
	reps := sub.Replicates
	r.eng.Schedule(d, func() {
		if failing {
			done(reps-1, 1)
		} else {
			done(reps, 0)
		}
	})
	return id, nil
}

// submissions returns how many times each stage was submitted.
func (r *scriptedRunner) submissions() map[string]int {
	out := map[string]int{}
	for _, id := range r.ids {
		out[id[strings.Index(id, "/")+1:]]++
	}
	return out
}

func harness(t *testing.T) (*sim.Engine, *scriptedRunner, *Engine, *obs.Obs) {
	t.Helper()
	eng := sim.NewEngine()
	run := newScriptedRunner(eng)
	o := obs.New(eng)
	return eng, run, NewEngine(eng, run, o, Config{}), o
}

func TestWorkflowReadinessOrder(t *testing.T) {
	eng, runner, e, o := harness(t)
	// The search branch takes longer than bootstrap: consensus must
	// wait for both.
	runner.delay["search"] = 10 * sim.Hour
	runner.delay["bootstrap"] = 2 * sim.Hour
	r, err := e.Submit(diamond(7))
	if err != nil {
		t.Fatal(err)
	}
	if got := runner.submissions(); len(got) != 1 || got["model-selection"] != 1 {
		t.Fatalf("at submit, only the root stage should run; got %v", got)
	}
	eng.RunUntil(sim.Time(30 * sim.Hour))
	if r.State != RunComplete {
		t.Fatalf("run state = %s, want %s", r.State, RunComplete)
	}
	search := r.stages["search"]
	boot := r.stages["bootstrap"]
	cons := r.stages["consensus"]
	if boot.DoneAt >= search.DoneAt {
		t.Fatalf("bootstrap (done %v) should finish before search (done %v)", boot.DoneAt, search.DoneAt)
	}
	if cons.StartedAt < search.DoneAt {
		t.Fatalf("consensus started at %v before search finished at %v", cons.StartedAt, search.DoneAt)
	}
	if got := runner.submissions(); got["consensus"] != 1 || got["search"] != 1 {
		t.Fatalf("submission counts = %v", got)
	}
	// The fan-out stage is one batch with the full replicate width and
	// a seed derived from the workflow, not the base spec.
	for i, id := range runner.ids {
		if strings.HasSuffix(id, "/bootstrap") {
			sub := runner.subs[i]
			if sub.Replicates != 5 || !sub.Bootstrap {
				t.Fatalf("bootstrap stage submission = %+v", sub)
			}
			if sub.Spec.Seed != StageSeed(7, "bootstrap", 1) {
				t.Fatalf("bootstrap seed = %d, want StageSeed", sub.Spec.Seed)
			}
		}
		if strings.HasSuffix(id, "/model-selection") || strings.HasSuffix(id, "/consensus") {
			if !runner.subs[i].ServiceOnly {
				t.Fatalf("short stage %s not marked ServiceOnly", id)
			}
		}
	}
	var wfEvents []obs.Stage
	o.Journal.Each(func(ev obs.Event) {
		if ev.Batch == r.ID && ev.Job == "" {
			wfEvents = append(wfEvents, ev.Stage)
		}
	})
	if !reflect.DeepEqual(wfEvents, []obs.Stage{obs.StageWfSubmit, obs.StageWfComplete}) {
		t.Fatalf("run-level journal events = %v", wfEvents)
	}
}

func TestStageRetryDrawsFreshSeed(t *testing.T) {
	eng, runner, e, _ := harness(t)
	runner.fail["search"] = 1
	r, err := e.Submit(diamond(11))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(30 * sim.Hour))
	if r.State != RunComplete {
		t.Fatalf("run state = %s, want complete after one retry", r.State)
	}
	search := r.stages["search"]
	if search.Attempts != 2 {
		t.Fatalf("search attempts = %d, want 2", search.Attempts)
	}
	var seeds []int64
	for i, id := range runner.ids {
		if strings.HasSuffix(id, "/search") {
			seeds = append(seeds, runner.seeds[i])
		}
	}
	if len(seeds) != 2 || seeds[0] == seeds[1] {
		t.Fatalf("retry must draw a fresh seed; got %v", seeds)
	}
}

// TestDirtySubtreeReexecution is the acceptance test for
// subtree-scoped failure handling: when search fails for good, only
// its descendants are skipped — consensus never runs — while the
// independent bootstrap branch completes.
func TestDirtySubtreeReexecution(t *testing.T) {
	eng, runner, e, _ := harness(t)
	runner.fail["search"] = 2 // both attempts fail
	r, err := e.Submit(diamond(13))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(30 * sim.Hour))
	if r.State != RunFailed {
		t.Fatalf("run state = %s, want failed", r.State)
	}
	states := map[string]StageState{}
	for _, id := range r.Order {
		sr := r.stages[id]
		states[id] = sr.State
	}
	want := map[string]StageState{
		"model-selection": StageDone, "search": StageFailed,
		"bootstrap": StageDone, "consensus": StageSkipped,
	}
	if !reflect.DeepEqual(states, want) {
		t.Fatalf("stage states = %v, want %v", states, want)
	}
	if got := runner.submissions(); got["model-selection"] != 1 || got["bootstrap"] != 1 || got["search"] != 2 || got["consensus"] != 0 {
		t.Fatalf("submissions = %v", got)
	}
}

func TestStatusShape(t *testing.T) {
	eng, _, e, _ := harness(t)
	r, err := e.Submit(diamond(19))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(30 * sim.Hour))
	st, err := e.Status(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != RunComplete || len(st.Stages) != 4 {
		t.Fatalf("status = %+v", st)
	}
	for i, id := range r.Order {
		if st.Stages[i].ID != id || st.Stages[i].State != StageDone || st.Stages[i].BatchID == "" {
			t.Fatalf("stage status %d = %+v", i, st.Stages[i])
		}
	}
	// Only the run's own ID finds it: not a later number, and not another
	// spelling of its own.
	for _, id := range []string{"wf-000042", "wf-000000", "wf-0000001", "wf-1", "wf-+00001", "wf-000001 ", "shard0-wf-000001"} {
		if _, err := e.Status(id); err == nil {
			t.Fatalf("status of unknown run %q must fail", id)
		}
	}
	if got := e.Runs(); len(got) != 1 || got[0] != r.ID {
		t.Fatalf("Runs() = %v", got)
	}
}

// TestRunsInCreationOrderPastSixDigits: run 1 000 000 is listed after
// run 999 999, though it sorts before it as a string, and each of the
// three is found by its own ID.
func TestRunsInCreationOrderPastSixDigits(t *testing.T) {
	_, _, e, _ := harness(t)
	filler := &Run{}
	e.runs = make([]*Run, 999_997)
	for i := range e.runs {
		e.runs[i] = filler
	}
	var want []string
	for i := 0; i < 3; i++ {
		r, err := e.Submit(diamond(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, r.ID)
		if st, err := e.Status(r.ID); err != nil || st.ID != r.ID {
			t.Fatalf("Status(%s) = %+v, %v", r.ID, st, err)
		}
	}
	if want[2] != "wf-1000000" {
		t.Fatalf("fixture: third run is %s", want[2])
	}
	if got := e.Runs(); !slices.Equal(got[len(got)-3:], want) {
		t.Errorf("Runs() ends %v, want creation order %v", got[len(got)-3:], want)
	}
}

// TestStageSeedPinned is the cross-version regression pin: these
// exact values are what replicate batches and retries were seeded
// with in recorded WALs, so any change to the derivation breaks
// recovery of existing durable state and must show up here.
func TestStageSeedPinned(t *testing.T) {
	cases := []struct {
		seed    int64
		stage   string
		attempt int
		want    int64
	}{
		{42, "search", 1, 97112148977670534},
		{1, "model-selection", 1, 754338909153817640},
		{7, "bootstrap", 3, 520333105887542680},
		{0, "", 0, 3103065343055858283},
	}
	for _, c := range cases {
		if got := StageSeed(c.seed, c.stage, c.attempt); got != c.want {
			t.Errorf("StageSeed(%d, %q, %d) = %d, want %d", c.seed, c.stage, c.attempt, got, c.want)
		}
	}
}

// TestStageSeedDistribution sweeps 10^4 (stage, attempt) pairs under
// one workflow seed: no two may collide (a collision would hand two
// stages the same RNG stream), none may be negative, and the low bits
// must spread evenly enough that downstream modulo use is safe.
func TestStageSeedDistribution(t *testing.T) {
	const stages, attempts = 100, 100
	seen := make(map[int64]string, stages*attempts)
	var buckets [16]int
	for s := 0; s < stages; s++ {
		id := fmt.Sprintf("stage-%03d", s)
		for a := 1; a <= attempts; a++ {
			v := StageSeed(9, id, a)
			if v < 0 {
				t.Fatalf("StageSeed(9, %q, %d) = %d, want non-negative", id, a, v)
			}
			key := fmt.Sprintf("%s/%d", id, a)
			if prev, dup := seen[v]; dup {
				t.Fatalf("seed collision: %s and %s both map to %d", prev, key, v)
			}
			seen[v] = key
			buckets[v%16]++
		}
	}
	// With 10^4 draws over 16 buckets the expected count is 625; a
	// healthy hash stays within ±25% comfortably.
	for b, n := range buckets {
		if n < 469 || n > 781 {
			t.Errorf("bucket %d holds %d of %d seeds, want ~%d (low-bit bias)",
				b, n, stages*attempts, stages*attempts/16)
		}
	}
}
