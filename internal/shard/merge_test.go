package shard

import (
	"strings"
	"testing"

	"lattice/internal/obs"
	"lattice/internal/sim"
)

// buildHub populates one shard's registry with the series shapes the
// coordinator actually emits: an unlabelled counter, a labelled
// counter, a gauge, and a histogram — all with identical names across
// shards, which is exactly the collision the shard label must prevent.
func buildHub(scale float64) *obs.Obs {
	o := obs.New(sim.NewEngine())
	o.Counter("lattice_sched_jobs_submitted_total", "Jobs accepted").Add(100 * scale)
	o.Counter("lattice_sched_placements_total", "Placements by resource",
		obs.L("resource", "umd-hpc"), obs.L("policy", "full")).Add(40 * scale)
	o.Gauge("lattice_sched_pending_jobs", "Jobs awaiting placement").Set(7 * scale)
	h := o.Histogram("lattice_sched_placement_wait_seconds", "Submit to dispatch", nil)
	h.Observe(30 * scale)
	h.Observe(90 * scale)
	return o
}

// TestMergeSnapshotsShardLabel is the per-shard metric identity
// check: after merging, every single series carries a shard label, in
// key-sorted label position, and the per-shard values survive
// unchanged.
func TestMergeSnapshotsShardLabel(t *testing.T) {
	hubs := []*obs.Obs{buildHub(1), buildHub(2), buildHub(3)}
	var per [][]obs.SeriesSnapshot
	for _, o := range hubs {
		per = append(per, o.Registry.Snapshot())
	}
	merged := MergeSnapshots(per)
	if want := len(per[0]) + len(per[1]) + len(per[2]); len(merged) != want {
		t.Fatalf("merged %d series, want %d (nothing may collide or fold)", len(merged), want)
	}
	for _, s := range merged {
		found := false
		for i, l := range s.Labels {
			if l.Key == "shard" {
				found = true
				if i > 0 && s.Labels[i-1].Key > "shard" {
					t.Errorf("series %s: labels not key-sorted after shard insertion: %v", s.Name, s.Labels)
				}
			}
		}
		if !found {
			t.Errorf("series %s has no shard label: %v", s.Name, s.Labels)
		}
	}
}

// TestMergeExpositionsParseBack renders the merged exposition and
// parses it back with obs.ParseExposition: the sample count must be
// the exact sum of the per-shard sample counts (collision-free), every
// key must carry the shard label, known values must read back
// per-shard, and two merges must be byte-identical (deterministic).
func TestMergeExpositionsParseBack(t *testing.T) {
	hubs := []*obs.Obs{buildHub(1), buildHub(2)}
	var per [][]obs.SeriesSnapshot
	wantSamples := 0
	for _, o := range hubs {
		snap := o.Registry.Snapshot()
		per = append(per, snap)
		m, err := obs.ParseExposition(o.Exposition())
		if err != nil {
			t.Fatalf("per-shard exposition unparseable: %v", err)
		}
		wantSamples += len(m)
	}

	render := func() string {
		var b strings.Builder
		obs.WriteExposition(&b, MergeSnapshots(per))
		return b.String()
	}
	text := render()
	if text != render() {
		t.Fatal("merged exposition is not deterministic")
	}
	m, err := obs.ParseExposition(text)
	if err != nil {
		t.Fatalf("merged exposition unparseable: %v", err)
	}
	if len(m) != wantSamples {
		t.Fatalf("merged exposition has %d samples, want %d (per-shard sum)", len(m), wantSamples)
	}
	for key := range m {
		if !strings.Contains(key, `shard="`) {
			t.Errorf("sample %q lost its shard label", key)
		}
	}

	// Spot-check values landed under the right shard.
	checks := map[string]float64{
		`lattice_sched_jobs_submitted_total{shard="0"}`:                              100,
		`lattice_sched_jobs_submitted_total{shard="1"}`:                              200,
		`lattice_sched_pending_jobs{shard="0"}`:                                      7,
		`lattice_sched_pending_jobs{shard="1"}`:                                      14,
		`lattice_sched_placements_total{policy="full",resource="umd-hpc",shard="0"}`: 40,
		`lattice_sched_placement_wait_seconds_count{shard="1"}`:                      2,
	}
	for key, want := range checks {
		got, ok := m[key]
		if !ok {
			t.Errorf("merged exposition missing %q", key)
			continue
		}
		// Samples here are integral by construction; comparing through
		// int keeps the check exact without a float equality.
		if int(got) != int(want) {
			t.Errorf("%s = %g, want %g", key, got, want)
		}
	}
}
