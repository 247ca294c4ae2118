package experiments

import "testing"

func TestFaultScenarioShape(t *testing.T) {
	if testing.Short() {
		t.Skip("grid simulation experiment")
	}
	t.Parallel()
	r, err := FaultScenario(11)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", r)
	golden(t, "faults", r.String())
	if !r.Conserved {
		t.Error("conservation violated: a job missed or repeated its terminal state under faults")
	}
	if !r.DigestsEqual {
		t.Error("two same-seed hostile runs diverged (digest or exposition)")
	}
	base := r.Results["baseline"]
	hostile := r.Results["faulted"]
	if base.Completed+base.Failed != base.Jobs || hostile.Completed+hostile.Failed != hostile.Jobs {
		t.Errorf("batches not terminal: baseline %+v, faulted %+v", base, hostile)
	}
	if len(r.Injected) == 0 {
		t.Error("hostile schedule injected no faults")
	}
	for _, k := range []string{"outage", "submit-fail", "churn", "lost-result"} {
		found := false
		for kind, n := range r.Injected {
			if string(kind) == k && n > 0 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("fault kind %s never fired in the hostile run", k)
		}
	}
	if r.Digest == "" {
		t.Error("hostile run produced no journal digest")
	}
}
