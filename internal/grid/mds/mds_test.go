package mds

import (
	"testing"

	"lattice/internal/lrm"
	"lattice/internal/sim"
)

// fakeLRM is a minimal LRM producing a controllable Info.
type fakeLRM struct {
	name string
	free int
}

func (f *fakeLRM) Name() string          { return f.name }
func (f *fakeLRM) Submit(*lrm.Job) error { return nil }
func (f *fakeLRM) Cancel(string) bool    { return false }
func (f *fakeLRM) Stats() lrm.Stats      { return lrm.Stats{} }
func (f *fakeLRM) Info() lrm.Info {
	return lrm.Info{Name: f.name, Kind: "pbs", TotalCPUs: 8, FreeCPUs: f.free, Stable: true}
}

func TestPublishLookup(t *testing.T) {
	eng := sim.NewEngine()
	idx, err := NewIndex(eng, 5*sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	idx.Publish(lrm.Info{Name: "r1", FreeCPUs: 3})
	e, ok := idx.Lookup("r1")
	if !ok || e.Info.FreeCPUs != 3 {
		t.Fatalf("lookup failed: %+v %v", e, ok)
	}
	if _, ok := idx.Lookup("nope"); ok {
		t.Error("lookup of unknown resource succeeded")
	}
}

func TestTTLExpiry(t *testing.T) {
	eng := sim.NewEngine()
	idx, _ := NewIndex(eng, 5*sim.Minute)
	idx.Publish(lrm.Info{Name: "r1"})
	eng.Schedule(6*sim.Minute, func() {
		if _, ok := idx.Lookup("r1"); ok {
			t.Error("entry should have expired")
		}
		off := idx.Offline()
		if len(off) != 1 || off[0] != "r1" {
			t.Errorf("Offline() = %v", off)
		}
	})
	eng.Run()
}

func TestProviderKeepsEntryFresh(t *testing.T) {
	eng := sim.NewEngine()
	idx, _ := NewIndex(eng, 5*sim.Minute)
	src := &fakeLRM{name: "cluster", free: 2}
	p, err := StartProvider(eng, idx, src, 2*sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Well past several TTLs, the entry must still be fresh and must
	// reflect updated state.
	eng.Schedule(30*sim.Minute, func() {
		src.free = 7
	})
	eng.Schedule(40*sim.Minute, func() {
		e, ok := idx.Lookup("cluster")
		if !ok {
			t.Fatal("provider let the entry expire")
		}
		if e.Info.FreeCPUs != 7 {
			t.Errorf("stale FreeCPUs = %d, want 7", e.Info.FreeCPUs)
		}
		p.Stop()
	})
	// After stopping, the entry ages out (resource offline).
	eng.Schedule(50*sim.Minute, func() {
		if _, ok := idx.Lookup("cluster"); ok {
			t.Error("entry still fresh after provider stopped")
		}
	})
	eng.RunUntil(sim.Time(sim.Hour))
}

func TestPropagatorAggregatesToCentral(t *testing.T) {
	eng := sim.NewEngine()
	local1, _ := NewIndex(eng, 5*sim.Minute)
	local2, _ := NewIndex(eng, 5*sim.Minute)
	central, _ := NewIndex(eng, 5*sim.Minute)
	StartProvider(eng, local1, &fakeLRM{name: "condor-a", free: 1}, sim.Minute)
	StartProvider(eng, local2, &fakeLRM{name: "pbs-b", free: 2}, sim.Minute)
	if _, err := StartPropagator(eng, local1, central, 2*sim.Minute); err != nil {
		t.Fatal(err)
	}
	StartPropagator(eng, local2, central, 2*sim.Minute)
	eng.Schedule(10*sim.Minute, func() {
		snap := central.Snapshot()
		if len(snap) != 2 {
			t.Fatalf("central sees %d resources, want 2", len(snap))
		}
		if snap[0].Info.Name != "condor-a" || snap[1].Info.Name != "pbs-b" {
			t.Errorf("snapshot order wrong: %v, %v", snap[0].Info.Name, snap[1].Info.Name)
		}
	})
	eng.RunUntil(sim.Time(15 * sim.Minute))
}

func TestOfflineResourceDisappearsFromCentral(t *testing.T) {
	eng := sim.NewEngine()
	local, _ := NewIndex(eng, 4*sim.Minute)
	central, _ := NewIndex(eng, 4*sim.Minute)
	p, _ := StartProvider(eng, local, &fakeLRM{name: "flaky"}, sim.Minute)
	StartPropagator(eng, local, central, sim.Minute)
	// Resource "crashes" at t=20min.
	eng.Schedule(20*sim.Minute, func() { p.Stop() })
	eng.Schedule(19*sim.Minute, func() {
		if _, ok := central.Lookup("flaky"); !ok {
			t.Error("resource should be visible before crash")
		}
	})
	eng.Schedule(30*sim.Minute, func() {
		if _, ok := central.Lookup("flaky"); ok {
			t.Error("crashed resource still fresh in central index 10 min later")
		}
	})
	eng.RunUntil(sim.Time(35 * sim.Minute))
}

// TestCentralExpiryWithLiveDownstream covers the split-brain case: the
// downstream provider keeps its local index fresh, but the propagation
// link to the central index dies. The central entry must age out on
// its own TTL even though the resource is alive and publishing.
func TestCentralExpiryWithLiveDownstream(t *testing.T) {
	eng := sim.NewEngine()
	local, _ := NewIndex(eng, 4*sim.Minute)
	central, _ := NewIndex(eng, 4*sim.Minute)
	StartProvider(eng, local, &fakeLRM{name: "alive", free: 3}, sim.Minute)
	p, err := StartPropagator(eng, local, central, sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	eng.Schedule(20*sim.Minute, func() { p.Stop() }) // the link dies
	eng.Schedule(30*sim.Minute, func() {
		if _, ok := local.Lookup("alive"); !ok {
			t.Error("local entry expired although the provider kept publishing")
		}
		if _, ok := central.Lookup("alive"); ok {
			t.Error("central entry still fresh 10 min after the propagation link died")
		}
		if off := central.Offline(); len(off) != 1 || off[0] != "alive" {
			t.Errorf("central Offline() = %v, want [alive]", off)
		}
	})
	eng.RunUntil(sim.Time(35 * sim.Minute))
}

// TestSnapshotDeterministicUnderExpiry pins Snapshot's contract while
// entries age out mid-stream: always name-sorted, and only fresh
// entries appear — the property the scheduler's deterministic
// placement loop rests on.
func TestSnapshotDeterministicUnderExpiry(t *testing.T) {
	eng := sim.NewEngine()
	idx, _ := NewIndex(eng, 10*sim.Minute)
	// Publish in anti-alphabetical order with staggered times so each
	// expires at a different moment.
	names := []string{"zeta", "mid", "alpha"}
	for i, n := range names {
		n := n
		eng.Schedule(sim.Duration(i)*3*sim.Minute, func() {
			idx.Publish(lrm.Info{Name: n})
		})
	}
	check := func(at sim.Duration, want []string) {
		eng.Schedule(at, func() {
			snap := idx.Snapshot()
			if len(snap) != len(want) {
				t.Errorf("t=%v: snapshot has %d entries, want %v", at, len(snap), want)
				return
			}
			view, _ := idx.View()
			if len(view) != len(want) {
				t.Errorf("t=%v: view has %d entries, want %v", at, len(view), want)
				return
			}
			for i, e := range snap {
				if e.Info.Name != want[i] || view[i].Info.Name != want[i] || view[i].UpdatedAt != e.UpdatedAt {
					t.Errorf("t=%v: snapshot[%d] = %s, view[%d] = %s, want %s", at, i, e.Info.Name, i, view[i].Info.Name, want[i])
				}
			}
		})
	}
	check(7*sim.Minute, []string{"alpha", "mid", "zeta"}) // all fresh, sorted
	check(11*sim.Minute, []string{"alpha", "mid"})        // zeta (t=0) expired
	check(14*sim.Minute, []string{"alpha"})               // mid (t=3m) expired
	check(17*sim.Minute, []string{})                      // all aged out
	eng.RunUntil(sim.Time(20 * sim.Minute))
}

// TestViewCachedUntilInvalidated pins the view's contract: the same
// shared slice and version while nothing changed (no allocation), a new
// slice after a Publish or a TTL expiry with the old one left exactly
// as it was, and Snapshot always a private copy.
func TestViewCachedUntilInvalidated(t *testing.T) {
	eng := sim.NewEngine()
	idx, _ := NewIndex(eng, 5*sim.Minute)
	idx.Publish(lrm.Info{Name: "b", FreeCPUs: 1})
	idx.Publish(lrm.Info{Name: "a", FreeCPUs: 2})
	v1, ver1 := idx.View()
	if len(v1) != 2 || v1[0].Info.Name != "a" || v1[1].Info.Name != "b" {
		t.Fatalf("view = %+v", v1)
	}
	if n := testing.AllocsPerRun(100, func() {
		if v, ver := idx.View(); ver != ver1 || &v[0] != &v1[0] {
			t.Fatal("unchanged index rebuilt its view")
		}
	}); n != 0 {
		t.Errorf("View on an unchanged index allocates %v", n)
	}

	snap := idx.Snapshot()
	if &snap[0] == &v1[0] {
		t.Fatal("Snapshot returned the shared view")
	}
	snap[0].Info.Name = "scribbled"
	if v, ver := idx.View(); ver != ver1 || v[0].Info.Name != "a" || len(idx.Snapshot()) != 2 {
		t.Fatal("writing to a Snapshot reached the index")
	}

	idx.Publish(lrm.Info{Name: "a", FreeCPUs: 7})
	v2, ver2 := idx.View()
	if ver2 == ver1 || &v2[0] == &v1[0] || v2[0].Info.FreeCPUs != 7 {
		t.Fatalf("Publish did not replace the view: version %d→%d, %+v", ver1, ver2, v2[0].Info)
	}
	if v1[0].Info.FreeCPUs != 2 {
		t.Error("the replaced view was edited in place")
	}

	// No Publish from here on: expiry alone must invalidate.
	eng.Schedule(6*sim.Minute, func() {
		v3, ver3 := idx.View()
		if len(v3) != 0 || ver3 == ver2 {
			t.Errorf("after the TTL: view %+v, version %d→%d", v3, ver2, ver3)
		}
		if len(v2) != 2 {
			t.Error("the expired view was truncated in place")
		}
		if _, again := idx.View(); again != ver3 {
			t.Error("an empty view is rebuilt on every call")
		}
	})
	eng.RunUntil(sim.Time(7 * sim.Minute))
}

func TestValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewIndex(eng, 0); err == nil {
		t.Error("expected error for zero TTL")
	}
	idx, _ := NewIndex(eng, sim.Minute)
	if _, err := StartProvider(eng, idx, &fakeLRM{name: "x"}, 0); err == nil {
		t.Error("expected error for zero provider period")
	}
	if _, err := StartPropagator(eng, idx, idx, 0); err == nil {
		t.Error("expected error for zero propagator period")
	}
}
