package faults

import (
	"strings"
	"testing"

	"lattice/internal/grid/mds"
	"lattice/internal/sim"
)

// TestDemandSpikeDrivesHook checks the workload-side fault: the hook
// receives the factor at the window start and 1 at the end, the spike
// counts as an injection, and a hook attached after Apply still fires.
func TestDemandSpikeDrivesHook(t *testing.T) {
	h := newHarness(t, 1, sim.Hour, Schedule{Events: []Event{
		{At: sim.Time(10 * sim.Minute), Kind: KindDemandSpike, Resource: "portal-demand",
			Duration: 20 * sim.Minute, Factor: 10},
	}})
	var calls []float64
	// Attach AFTER Apply — demand hooks live on the workload side.
	h.in.AttachDemand("portal-demand", func(f float64) { calls = append(calls, f) })
	h.eng.RunUntil(sim.Time(sim.Hour))
	if len(calls) != 2 || calls[0] != 10 || calls[1] != 1 {
		t.Fatalf("demand hook calls = %v, want [10 1]", calls)
	}
	if h.in.Injected()[KindDemandSpike] != 1 {
		t.Fatalf("injected = %v, want one demand-spike", h.in.Injected())
	}
}

// TestDemandSpikeWithoutHookStillJournals checks a spike with no
// attached hook is not an error — it counts and the run proceeds.
func TestDemandSpikeWithoutHookStillJournals(t *testing.T) {
	h := newHarness(t, 1, sim.Hour, Schedule{Events: []Event{
		{At: sim.Time(sim.Minute), Kind: KindDemandSpike, Resource: "nobody",
			Duration: sim.Minute, Factor: 2},
	}})
	h.eng.RunUntil(sim.Time(sim.Hour))
	if h.in.Injected()[KindDemandSpike] != 1 {
		t.Fatalf("injected = %v", h.in.Injected())
	}
}

// TestCapacityCollapseScalesAndRefuses checks the brownout: published
// capacity shrinks by the factor during the window, submissions beyond
// the collapsed capacity are refused, and both recover at the end.
func TestCapacityCollapseScalesAndRefuses(t *testing.T) {
	eng := sim.NewEngine()
	in := NewInjector(eng, sim.NewRNG(1), nil)
	fake := newFakeLRM(eng, "res-a", 10*sim.Hour) // jobs effectively never finish
	res := in.Wrap(fake)
	err := in.Apply(Schedule{Events: []Event{
		{At: sim.Time(10 * sim.Minute), Kind: KindCapacityCollapse, Resource: "res-a",
			Duration: 10 * sim.Minute, Factor: 0.5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := mds.NewIndex(eng, 5*sim.Minute)
	if err := mds.StartProvider(eng, in.Sink(idx), fake, sim.Minute); err != nil {
		t.Fatal(err)
	}
	outcomes := make([]*outcome, 4)
	eng.Schedule(12*sim.Minute, func() {
		// Collapsed capacity: 0.5 × 4 CPUs = 2 slots. The third and
		// fourth submissions must be refused.
		var refused int
		for i := range outcomes {
			outcomes[i] = &outcome{}
			if err := res.Submit(job(string(rune('a'+i)), outcomes[i])); err != nil {
				if !strings.Contains(err.Error(), "capacity collapsed") {
					t.Errorf("unexpected refusal: %v", err)
				}
				refused++
			}
		}
		if refused != 2 {
			t.Errorf("refused %d submissions, want 2", refused)
		}
	})
	eng.Schedule(15*sim.Minute, func() {
		e, ok := idx.Lookup("res-a")
		if !ok || e.Info.TotalCPUs != 2 {
			t.Errorf("collapsed entry: %+v ok=%v", e, ok)
		}
	})
	eng.Schedule(25*sim.Minute, func() {
		e, ok := idx.Lookup("res-a")
		if !ok || e.Info.TotalCPUs != 4 {
			t.Errorf("post-collapse entry: %+v ok=%v", e, ok)
		}
		if err := res.Submit(job("e", &outcome{})); err != nil {
			t.Errorf("post-collapse submit refused: %v", err)
		}
	})
	eng.RunUntil(sim.Time(sim.Hour))
	if got := in.Injected()[KindCapacityCollapse]; got != 3 {
		t.Errorf("injected capacity-collapse count = %d, want 3 (window + 2 refusals)", got)
	}
}

// TestOverloadEventValidation pins the new kinds' Validate rules.
func TestOverloadEventValidation(t *testing.T) {
	bad := []Schedule{
		{Events: []Event{{At: 0, Kind: KindDemandSpike, Resource: "r", Duration: sim.Minute, Factor: 1}}},
		{Events: []Event{{At: 0, Kind: KindDemandSpike, Resource: "r", Factor: 2}}},
		{Events: []Event{{At: 0, Kind: KindCapacityCollapse, Resource: "r", Duration: sim.Minute, Factor: 1}}},
		{Events: []Event{{At: 0, Kind: KindCapacityCollapse, Resource: "r", Duration: sim.Minute, Factor: 0}}},
		{Events: []Event{{At: 0, Kind: KindCapacityCollapse, Resource: "r", Factor: 0.5}}},
	}
	for i, sch := range bad {
		if err := sch.Validate(); err == nil {
			t.Errorf("schedule %d validated, want error", i)
		}
	}
	ok := Schedule{Events: []Event{
		{At: 0, Kind: KindDemandSpike, Resource: "r", Duration: sim.Minute, Factor: 10},
		{At: 0, Kind: KindCapacityCollapse, Resource: "res-a", Duration: sim.Minute, Factor: 0.25},
	}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	// Apply requires capacity-collapse targets to be wrapped, but not
	// demand-spike hooks (they attach later, workload-side).
	eng := sim.NewEngine()
	in := NewInjector(eng, sim.NewRNG(1), nil)
	if err := in.Apply(ok); err == nil {
		t.Error("Apply accepted capacity-collapse on an unwrapped resource")
	}
	in2 := NewInjector(eng, sim.NewRNG(1), nil)
	in2.Wrap(newFakeLRM(eng, "res-a", sim.Hour))
	if err := in2.Apply(ok); err != nil {
		t.Errorf("Apply rejected a valid overload schedule: %v", err)
	}
}
