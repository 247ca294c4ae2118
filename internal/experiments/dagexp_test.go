package experiments

import "testing"

func TestDagScenarioShape(t *testing.T) {
	if testing.Short() {
		t.Skip("grid simulation experiment")
	}
	t.Parallel()
	r, err := DagScenario(11)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", r)
	golden(t, "dag", r.String())
	if r.Stages != 4 {
		t.Errorf("workflow has %d stages, want 4", r.Stages)
	}
	if r.RunState != "complete" {
		t.Errorf("run state %q, want complete", r.RunState)
	}
	if r.Jobs < 4 {
		t.Errorf("workflow expanded into %d grid jobs, want >= 4", r.Jobs)
	}
	if !r.OrderOK {
		t.Error("readiness violated: a stage dispatched before its dependencies finished")
	}
	if !r.ShortOnService {
		t.Error("placement violated: a short stage job landed on the volunteer pool")
	}
	if !r.Conserved {
		t.Error("conservation violated: a stage job missed or repeated its terminal state")
	}
	if !r.DigestsEqual {
		t.Error("determinism violated: same-seed workflow runs diverged (digest or exposition)")
	}
	if r.Digest == "" {
		t.Error("workflow run produced no journal digest")
	}
	if r.engine.wait != 0 || r.chained.wait <= 0 {
		t.Errorf("stage-queue wait: DAG %v, hand-chained %v; the engine dispatches at the instant a stage is ready, a polling user cannot",
			r.engine.wait, r.chained.wait)
	}
	if r.engine.makespan >= r.chained.makespan {
		t.Errorf("payoff lost: DAG makespan %v not under hand-chained %v", r.engine.makespan, r.chained.makespan)
	}
}

func TestDagCrashScenarioShape(t *testing.T) {
	if testing.Short() {
		t.Skip("grid simulation experiment")
	}
	t.Parallel()
	r, err := DagCrashScenario(11)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", r)
	golden(t, "dagcrash", r.String())
	if r.Kills < 3 {
		t.Errorf("schedule holds %d kills, want >= 3", r.Kills)
	}
	if r.Recoveries < r.Kills {
		t.Errorf("run recovered %d times for %d scheduled kills", r.Recoveries, r.Kills)
	}
	if !r.TornRecovered {
		t.Error("torn log tail was never detected and survived")
	}
	if r.RunState != "complete" {
		t.Errorf("recovered run state %q, want complete", r.RunState)
	}
	if !r.Conserved {
		t.Error("conservation violated across kills")
	}
	if !r.DigestsEqual {
		t.Error("crashed-and-recovered workflow diverged from the uninterrupted run")
	}
}
