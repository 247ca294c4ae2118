package faults

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lattice/internal/lrm"
	"lattice/internal/obs"
	"lattice/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/edges.golden from the current code instead of comparing")

// TestEveryKindJournalsItsEdges pins, byte for byte, what the injector
// journals for one schedule that holds every kind, a flap and a crash:
// the detail text of each window edge, each counted injection, and —
// through the fixed job stream's outcomes — the order of the RNG draws.
// The fakes stand in for each thing a kind acts on: a wrapped resource,
// a wrapped resource that is a Churner, and a demand hook.
func TestEveryKindJournalsItsEdges(t *testing.T) {
	eng := sim.NewEngine()
	hub := obs.New(eng)
	in := NewInjector(eng, sim.NewRNG(7), hub)
	resA := in.Wrap(newFakeLRM(eng, "res-a", 20*sim.Minute))
	churner := &fakeChurner{fakeLRM: newFakeLRM(eng, "boinc-b", 20*sim.Minute)}
	resB := in.Wrap(churner)
	var demand []float64
	in.AttachDemand("portal-demand", func(f float64) { demand = append(demand, f) })
	at := func(m int) sim.Time { return sim.Time(sim.Duration(m) * sim.Minute) }
	err := in.Apply(Schedule{
		Events: []Event{
			{At: at(10), Kind: KindSubmitFail, Resource: "res-a", Duration: 30 * sim.Minute, P: 0.5},
			{At: at(20), Kind: KindDemandSpike, Resource: "portal-demand", Duration: 30 * sim.Minute, Factor: 3},
			{At: at(50), Kind: KindLostResult, Resource: "res-a", Duration: 40 * sim.Minute, P: 0.5},
			{At: at(70), Kind: KindSlowResult, Resource: "res-a", Duration: 40 * sim.Minute, P: 0.5, Delay: 10 * sim.Minute},
			{At: at(100), Kind: KindMDSDrop, Resource: "boinc-b", Duration: 20 * sim.Minute},
			{At: at(110), Kind: KindMDSStale, Resource: "res-a", Duration: 20 * sim.Minute},
			{At: at(130), Kind: KindCapacityCollapse, Resource: "res-a", Duration: 30 * sim.Minute, Factor: 0.5},
			{At: at(150), Kind: KindOutage, Resource: "boinc-b", Duration: 20 * sim.Minute},
			{At: at(160), Kind: KindChurn, Resource: "boinc-b", Hosts: 5},
		},
		Flaps:   []Flap{{Resource: "res-a", MeanUp: 40 * sim.Minute, MeanDown: 10 * sim.Minute, Start: at(180), Until: at(300)}},
		CrashAt: []sim.Time{at(360)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A job every 4 minutes, alternating the two resources; its outcome
	// journals beside the faults, and a refused submit journals its error.
	for i := 0; i < 85; i++ {
		res, id := resA, fmt.Sprintf("j%02d", i)
		if i%2 == 1 {
			res = resB
		}
		eng.ScheduleAt(at(4*i+1), func() {
			j := &lrm.Job{ID: id, Work: 1, Owner: &lrm.Callbacks{
				OnComplete: func(sim.Time) { hub.Record("", id, obs.StageComplete, res.Name(), "") },
				OnFail:     func(_ sim.Time, reason string) { hub.Record("", id, obs.StageFail, res.Name(), reason) },
			}}
			if err := res.Submit(j); err != nil {
				hub.Record("", id, obs.StageRequeue, res.Name(), err.Error())
			}
		})
	}
	// Two cancellations of jobs in flight: neither reaches an outcome.
	eng.ScheduleAt(at(60), func() { resA.Cancel("j14") })
	eng.ScheduleAt(at(95), func() { resB.Cancel("j23") })
	eng.RunUntil(at(480))

	if !in.Crashed() || eng.Now() != at(360) {
		t.Errorf("crashed=%v at %v, want a crash at 6h", in.Crashed(), eng.Now())
	}
	if len(demand) != 2 || demand[0] != 3 || demand[1] != 1 {
		t.Errorf("demand hook calls = %v, want [3 1]", demand)
	}
	if churner.asked != 5 {
		t.Errorf("churner asked for %d hosts, want 5", churner.asked)
	}
	want := map[Kind]int{
		KindSubmitFail: 6, KindDemandSpike: 1, KindLostResult: 2, KindSlowResult: 2, KindMDSDrop: 1,
		KindMDSStale: 1, KindCapacityCollapse: 2, KindOutage: 4, KindChurn: 1, KindCrash: 1,
	}
	if got := in.Injected(); !maps.Equal(got, want) {
		t.Errorf("Injected() = %v, want %v", got, want)
	}

	var b strings.Builder
	hub.Journal.Each(func(ev obs.Event) {
		fmt.Fprintf(&b, "%-8v %-8s %-14s %-4s %q\n", float64(ev.At), ev.Stage, ev.Resource, ev.Job, ev.Detail)
	})
	path := filepath.Join("testdata", "edges.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(golden) {
		t.Errorf("journal differs from %s (regenerate with -update only for an intended change):\n--- got\n%s--- want\n%s", path, b.String(), golden)
	}
}
