package metasched

import (
	"testing"

	"lattice/internal/grid/mds"
	"lattice/internal/lrm"
	"lattice/internal/obs"
	"lattice/internal/sim"
)

// TestBreakerTripsAndRecovers walks one resource's circuit through the
// full state machine on the virtual clock: consecutive gatekeeper
// refusals trip it open, the cooldown gates a half-open probe, a
// failed probe re-opens it, and a successful probe closes it again.
func TestBreakerTripsAndRecovers(t *testing.T) {
	eng := sim.NewEngine()
	idx, _ := mds.NewIndex(eng, 5*sim.Minute)
	res := &refusingLRM{eng: eng, name: "flaky-gate", failN: 3, runFor: 10 * sim.Minute,
		jobs: make(map[string]*lrm.Job)}
	if err := mds.StartProvider(eng, idx, res, sim.Minute); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.BreakerThreshold = 2
	hub := obs.New(eng)
	sched := New(eng, idx, cfg, Options{Obs: hub})
	if err := sched.Register(res, 1.0); err != nil {
		t.Fatal(err)
	}
	j := submit(sched, testJob("j1", 600), nil, nil)
	// Two refusals trip the breaker.
	eng.RunUntil(sim.Time(2 * sim.Minute))
	if !sched.resources["flaky-gate"].breakerOpen {
		t.Fatal("breaker not open after consecutive refusals")
	}
	if st := sched.Stats(); st.BreakerTrips != 1 {
		t.Fatalf("BreakerTrips = %d, want 1", st.BreakerTrips)
	}
	if res.submits != 2 {
		t.Fatalf("resource saw %d submissions while tripping, want 2", res.submits)
	}
	// While open — tripped at 0:30, so until 10:30 — scans and the
	// job's own backoff timer must not touch the resource.
	eng.RunUntil(sim.Time(10 * sim.Minute))
	if res.submits != 2 {
		t.Fatalf("open breaker leaked %d submissions", res.submits-2)
	}
	// Past the cooldown the half-open probe goes out (the third
	// refusal), re-arming the cooldown; the next probe is accepted and
	// closes the circuit.
	eng.RunUntil(sim.Time(2 * sim.Hour))
	if j.Status != StatusCompleted {
		t.Fatalf("job status %v, want completed (fail reason %q)", j.Status, j.FailReason)
	}
	if sched.resources["flaky-gate"].breakerOpen {
		t.Fatal("breaker still open after a successful probe")
	}
	if res.submits != 4 {
		t.Fatalf("resource saw %d submissions, want 4 (two trip, failed probe, successful probe)", res.submits)
	}
	// The journal narrates every transition.
	var details []string
	hub.Journal.Each(func(ev obs.Event) {
		if ev.Stage == obs.StageBreaker {
			if ev.Resource != "flaky-gate" {
				t.Fatalf("breaker event on %q", ev.Resource)
			}
			details = append(details, ev.Detail)
		}
	})
	if len(details) != 5 {
		t.Fatalf("breaker journal events %v, want open/probe/reopened/probe/closed", details)
	}
}

// TestBreakerDisabledIsZeroCost pins the default path: with
// BreakerThreshold 0 a refusal-heavy run trips nothing, journals
// nothing breaker-shaped, and the circuit never opens.
func TestBreakerDisabledIsZeroCost(t *testing.T) {
	eng := sim.NewEngine()
	idx, _ := mds.NewIndex(eng, 5*sim.Minute)
	res := &refusingLRM{eng: eng, name: "flaky-gate", failN: 4, runFor: 10 * sim.Minute,
		jobs: make(map[string]*lrm.Job)}
	if err := mds.StartProvider(eng, idx, res, sim.Minute); err != nil {
		t.Fatal(err)
	}
	hub := obs.New(eng)
	sched := New(eng, idx, DefaultConfig(), Options{Obs: hub})
	if err := sched.Register(res, 1.0); err != nil {
		t.Fatal(err)
	}
	j := submit(sched, testJob("j1", 600), nil, nil)
	eng.RunUntil(sim.Time(6 * sim.Hour))
	if j.Status != StatusCompleted {
		t.Fatalf("job status %v, want completed", j.Status)
	}
	if st := sched.Stats(); st.BreakerTrips != 0 {
		t.Fatalf("BreakerTrips = %d with breakers disabled", st.BreakerTrips)
	}
	if sched.resources["flaky-gate"].breakerOpen {
		t.Fatal("circuit open with breakers disabled")
	}
	hub.Journal.Each(func(ev obs.Event) {
		if ev.Stage == obs.StageBreaker {
			t.Fatalf("breaker event journaled with breakers disabled: %+v", ev)
		}
	})
}
