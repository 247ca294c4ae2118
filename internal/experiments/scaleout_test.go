package experiments

import "testing"

// TestScaleOutShape runs the full scale experiment at its default
// population (10^5 users, shard counts 1/2/4/8 with same-seed twins,
// plus the 4-shard crash variant) and pins the claims the experiment
// exists to prove: conservation and bit-identical twin digests at
// every shard count, strictly improving makespan 1→2→4, and a shard
// crash that recovers locally and matches its uninterrupted twin.
func TestScaleOutShape(t *testing.T) {
	if testing.Short() {
		t.Skip("grid simulation experiment")
	}
	t.Parallel()
	r, err := ScaleOutSized(1, 100000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "scale", r.String())
	want := []int{1, 2, 4, 8}
	if len(r.Points) != len(want) {
		t.Fatalf("got %d points, want %d", len(r.Points), len(want))
	}
	for i, p := range r.Points {
		if p.Shards != want[i] {
			t.Fatalf("point %d has %d shards, want %d", i, p.Shards, want[i])
		}
		if p.Jobs != r.Users {
			t.Errorf("%d shards: %d grid jobs from %d users", p.Shards, p.Jobs, r.Users)
		}
		if p.Completed+p.Failed != p.Jobs {
			t.Errorf("%d shards: %d+%d terminal of %d jobs", p.Shards, p.Completed, p.Failed, p.Jobs)
		}
		if !p.Conserved {
			t.Errorf("%d shards: conservation violated", p.Shards)
		}
		if !p.TwinMatch {
			t.Errorf("%d shards: same-seed twin digest mismatch", p.Shards)
		}
		if p.Digest == "" {
			t.Errorf("%d shards: empty cluster digest", p.Shards)
		}
	}
	if !r.Monotonic {
		t.Errorf("makespan not strictly improving 1→2→4 shards: %.2f, %.2f, %.2f h",
			r.Points[0].MakespanHours, r.Points[1].MakespanHours, r.Points[2].MakespanHours)
	}
	for i := 1; i < len(r.Points); i++ {
		prev, cur := r.Points[i-1], r.Points[i]
		if cur.MakespanHours > prev.MakespanHours {
			t.Errorf("makespan grew from %d shards (%.2f h) to %d shards (%.2f h)",
				prev.Shards, prev.MakespanHours, cur.Shards, cur.MakespanHours)
		}
		if cur.PeakIngestDepth > prev.PeakIngestDepth {
			t.Errorf("peak ingest depth grew from %d shards (%d) to %d shards (%d)",
				prev.Shards, prev.PeakIngestDepth, cur.Shards, cur.PeakIngestDepth)
		}
		if cur.MeanIngestWaitSeconds > prev.MeanIngestWaitSeconds {
			t.Errorf("mean ingest wait grew from %d shards (%.1f s) to %d shards (%.1f s)",
				prev.Shards, prev.MeanIngestWaitSeconds, cur.Shards, cur.MeanIngestWaitSeconds)
		}
	}

	if !r.CrashLocal {
		t.Error("crash variant: recovery was not local to the killed shard")
	}
	if r.CrashRecoveries < 1 {
		t.Errorf("crash variant: %d recoveries, want at least 1", r.CrashRecoveries)
	}
	if r.CrashRecoveredInputs <= 0 {
		t.Errorf("crash variant: recovered shard replayed %d inputs, want > 0", r.CrashRecoveredInputs)
	}
	if !r.CrashConserved {
		t.Error("crash variant: conservation violated")
	}
	if !r.CrashDigestsEqual {
		t.Error("crash variant: per-shard digests diverged from the uninterrupted twin")
	}
	if r.String() == "" {
		t.Error("empty result rendering")
	}
}
