package experiments

import "testing"

// TestOverloadScenarioShape runs the full overload experiment and pins
// the claims it exists to prove: under a 10× demand spike every
// offered submission reaches exactly one accounted terminal (completed
// batch | failed batch | journaled shed), same-seed twin runs are
// digest-equal at 1 and 4 shards, goodput with shedding stays at ≥ 90%
// of the pre-spike rate, the circuit breakers trip on the mid-spike
// brownout, and the unprotected baseline's p99 front-door wait blows
// up by ≥ 10× while shedding nothing.
func TestOverloadScenarioShape(t *testing.T) {
	if testing.Short() {
		t.Skip("grid simulation experiment")
	}
	t.Parallel()
	r, err := OverloadScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "overload", r.String())
	want := []int{1, 4}
	if len(r.Points) != len(want) {
		t.Fatalf("got %d protected points, want %d", len(r.Points), len(want))
	}
	for i, p := range r.Points {
		if p.Shards != want[i] || !p.Protected {
			t.Fatalf("point %d is shards=%d protected=%v, want shards=%d protected", i, p.Shards, p.Protected, want[i])
		}
		if !p.Conserved {
			t.Errorf("%d shards: conservation (including sheds) violated", p.Shards)
		}
		if got := p.Batches + p.ShedQuota + p.ShedOverload; got != p.Enqueued {
			t.Errorf("%d shards: %d batches + %d + %d sheds != %d offered",
				p.Shards, p.Batches, p.ShedQuota, p.ShedOverload, p.Enqueued)
		}
		if p.ShedOverload == 0 {
			t.Errorf("%d shards: spike produced no overload sheds", p.Shards)
		}
		if p.ShedQuota == 0 {
			t.Errorf("%d shards: heavy user produced no quota sheds", p.Shards)
		}
		if !p.TwinMatch {
			t.Errorf("%d shards: same-seed twin digest mismatch", p.Shards)
		}
		if p.Digest == "" {
			t.Errorf("%d shards: empty cluster digest", p.Shards)
		}
		if p.GoodputRatio < 0.9 {
			t.Errorf("%d shards: goodput %.2f of pre-spike rate, want ≥ 0.9", p.Shards, p.GoodputRatio)
		}
		if p.BreakerTrips == 0 {
			t.Errorf("%d shards: brownout tripped no circuit breakers", p.Shards)
		}
	}
	if !r.GoodputOK {
		t.Error("goodput claim not met")
	}
	b := r.Baseline
	if b.Protected || b.Shards != 1 {
		t.Fatalf("baseline is shards=%d protected=%v, want 1-shard unprotected", b.Shards, b.Protected)
	}
	if b.ShedQuota != 0 || b.ShedOverload != 0 {
		t.Errorf("unprotected baseline shed %d/%d submissions", b.ShedQuota, b.ShedOverload)
	}
	if !b.Conserved {
		t.Error("baseline conservation violated")
	}
	if b.BreakerTrips != 0 {
		t.Errorf("baseline tripped %d breakers with breakers disabled", b.BreakerTrips)
	}
	if !r.P99BlowupOK {
		t.Errorf("baseline p99 front-door wait only %.1f× the protected run's, want ≥ 10×", r.P99Blowup)
	}
}
