package experiments

import "testing"

func TestCrashScenarioShape(t *testing.T) {
	if testing.Short() {
		t.Skip("grid simulation experiment")
	}
	t.Parallel()
	r, err := CrashScenario(11)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", r)
	golden(t, "crash", r.String())
	if r.Kills < 3 {
		t.Errorf("schedule holds %d kills, want >= 3", r.Kills)
	}
	if r.Recoveries < r.Kills {
		t.Errorf("run recovered %d times for %d scheduled kills", r.Recoveries, r.Kills)
	}
	if !r.TornRecovered {
		t.Error("torn log tail was never detected and survived")
	}
	if !r.Conserved {
		t.Error("conservation violated: a job missed or repeated its terminal state across kills")
	}
	if !r.DigestsEqual {
		t.Error("crashed-and-recovered run diverged from the uninterrupted run (digest or exposition)")
	}
	base := r.Results["uninterrupted"]
	crashed := r.Results["crashed"]
	if base.Completed+base.Failed != base.Jobs || crashed.Completed+crashed.Failed != crashed.Jobs {
		t.Errorf("batches not terminal: uninterrupted %+v, crashed %+v", base, crashed)
	}
	if r.Digest == "" {
		t.Error("crashed run produced no journal digest")
	}
}
