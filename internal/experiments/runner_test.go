package experiments

import (
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"testing"

	"lattice/internal/faults"
	"lattice/internal/obs"
	"lattice/internal/sim"
)

// The runner's own tests are cheap and run under -short too. They stay
// serial: the first two count the process's open files and scratch
// directories, which concurrent durable scenarios would perturb.

// openFiles counts the process's open file descriptors. The first call
// in a test also turns the garbage collector off until the test ends:
// an *os.File nobody closed is closed by its finalizer once collected,
// which would hide exactly the leak the count is there to catch.
func openFiles(t *testing.T) int {
	t.Helper()
	// The runtime opens its poller's descriptors with the first regular
	// file; make sure that has happened before anything is counted.
	if err := os.WriteFile(filepath.Join(t.TempDir(), "warm"), nil, 0o600); err != nil {
		t.Fatal(err)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd to count open files with")
	}
	prev := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(prev) })
	return len(fds)
}

// scratchEmpty points the runner's scratch directories at a fresh
// directory and returns a check that nothing was left in it.
func scratchEmpty(t *testing.T) func() {
	t.Helper()
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	return func() {
		t.Helper()
		left, err := os.ReadDir(tmp)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range left {
			t.Errorf("scratch directory %s left behind", e.Name())
		}
	}
}

// TestRunnerKillRecoverClose drives the whole life cycle at toy size:
// 300 users through two durable shards, shard 1 killed mid-window and
// recovered over a torn log tail. The recovered run must match its
// uninterrupted twin shard for shard, and every log the run opened —
// the killed coordinator's included — must be closed again.
func TestRunnerKillRecoverClose(t *testing.T) {
	check := scratchEmpty(t)
	before := openFiles(t)
	sc := scaleScenario(300, 2, func(k int) *faults.Schedule {
		if k != 1 {
			return nil
		}
		return &faults.Schedule{CrashAt: []sim.Time{sim.Time(3 * sim.Hour)}}
	}, true)
	sc.tear = true
	crashed, base, err := twin(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if crashed.recoveries < 1 || crashed.crashed[1] < 1 || len(crashed.crashed) != 1 {
		t.Errorf("recoveries=%d crashed=%v, want shard 1 alone recovered at least once", crashed.recoveries, crashed.crashed)
	}
	if !crashed.torn {
		t.Error("torn log tail was never detected")
	}
	if crashed.replayed == 0 {
		t.Error("recovery replayed no durable inputs")
	}
	if base.recoveries != 0 {
		t.Errorf("disarmed twin recovered %d times", base.recoveries)
	}
	if !slices.Equal(crashed.shardDigests, base.shardDigests) || crashed.digest != base.digest {
		t.Errorf("recovered run diverged from its twin:\n%v\n%v", crashed.shardDigests, base.shardDigests)
	}
	if !crashed.conserved || !base.conserved || crashed.m.Jobs != 300 || crashed.m.Completed != 300 {
		t.Errorf("conserved=%v/%v, %d of %d jobs completed, want all 300", crashed.conserved, base.conserved, crashed.m.Completed, crashed.m.Jobs)
	}
	if after := openFiles(t); after != before {
		t.Errorf("%d files open after the run, %d before: a log was left open", after, before)
	}
	check()
}

// TestRunnerDeadlineCloses pins the failure path: a run that is never
// done is an error, and it still closes its logs and removes its
// scratch directory.
func TestRunnerDeadlineCloses(t *testing.T) {
	check := scratchEmpty(t)
	before := openFiles(t)
	sc := scaleScenario(10, 1, nil, true)
	sc.deadline = 3 * sim.Hour
	sc.done = func(*run) bool { return false }
	if _, err := execute(sc, 1); err == nil {
		t.Error("a run that never finishes returned no error")
	}
	if after := openFiles(t); after != before {
		t.Errorf("%d files open after the failed run, %d before", after, before)
	}
	check()
}

// TestConservedRejects feeds the conservation checker doctored
// evidence: it has to say violated, not only ever be seen passing.
func TestConservedRejects(t *testing.T) {
	ok := map[string]int{"a": 1, "b": 1, "c": 1}
	cases := []struct {
		name                          string
		terminal                      map[string]int
		jobs, offered, accepted, shed int
		want                          bool
	}{
		{"every job once", ok, 3, 3, 3, 0, true},
		{"sheds balance the door", ok, 3, 5, 3, 2, true},
		{"extra journaled jobs are fine", ok, 2, 2, 2, 0, true},
		{"a job never terminal", map[string]int{"a": 1, "b": 0, "c": 1}, 3, 3, 3, 0, false},
		{"a job terminal twice", map[string]int{"a": 1, "b": 2, "c": 1}, 3, 3, 3, 0, false},
		{"a job missing from the journal", map[string]int{"a": 1, "b": 1}, 3, 3, 3, 0, false},
		{"a submission vanished", ok, 3, 4, 3, 0, false},
		{"a submission counted twice", ok, 3, 3, 3, 1, false},
		{"nothing journaled at all", nil, 1, 1, 1, 0, false},
	}
	for _, c := range cases {
		if got := conserved(c.terminal, c.jobs, c.offered, c.accepted, c.shed); got != c.want {
			t.Errorf("%s: conserved = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestQuantileInterpolation pins the bucket interpolation at its
// edges.
func TestQuantileInterpolation(t *testing.T) {
	inf := math.Inf(1)
	hist := func(counts ...uint64) obs.SeriesSnapshot {
		bounds := []float64{1, 10, 100, inf}
		h := obs.SeriesSnapshot{}
		for i, c := range counts {
			h.Buckets = append(h.Buckets, obs.Bucket{UpperBound: bounds[len(bounds)-len(counts)+i], Count: c})
		}
		if len(counts) > 0 {
			h.Count = counts[len(counts)-1]
		}
		return h
	}
	cases := []struct {
		name string
		h    obs.SeriesSnapshot
		q    float64
		want float64
	}{
		{"empty histogram", obs.SeriesSnapshot{}, 0.99, 0},
		{"buckets but no observations", hist(0, 0, 0, 0), 0.99, 0},
		{"all mass in +Inf yields its lower bound", hist(0, 0, 0, 50), 0.99, 100},
		{"target exactly on a bucket edge", hist(0, 99, 100, 100), 0.99, 10},
		{"interpolates inside a bucket", hist(0, 0, 100, 100), 0.5, 55},
		{"first bucket interpolates from zero", hist(100, 100, 100, 100), 0.5, 0.5},
		{"single +Inf bucket", hist(7), 0.99, 0},
		{"single finite bucket", obs.SeriesSnapshot{Count: 4, Buckets: []obs.Bucket{{UpperBound: 8, Count: 4}}}, 0.5, 4},
	}
	for _, c := range cases {
		if got := quantile(c.h, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: quantile(%.2f) = %v, want %v", c.name, c.q, got, c.want)
		}
	}
	sum := hist(1, 2, 3, 4)
	addHistogram(&sum, hist(10, 20, 30, 40))
	if sum.Count != 44 || sum.Buckets[0].Count != 11 || sum.Buckets[3].Count != 44 {
		t.Errorf("addHistogram folded to count %d, buckets %v", sum.Count, sum.Buckets)
	}
}

// TestObsExpositionsCarriers pins which results -obs can print: every
// type whose rows are configurations with BatchMetrics behind them,
// the fault and crash results included.
func TestObsExpositionsCarriers(t *testing.T) {
	rows := [][]string{{"b"}, {}, {"a"}, {"silent"}}
	byName := map[string]BatchMetrics{"a": {Exposition: "A"}, "b": {Exposition: "B"}, "silent": {}}
	want := []NamedExposition{{"b", "B"}, {"a", "A"}}
	for _, res := range []any{
		&RankingResult{Rows: rows, Results: byName},
		&GatingResult{Rows: rows, Results: byName},
		&EstimatorEffectResult{Rows: rows, Results: byName},
		&FaultResult{Rows: rows, Results: byName},
		&CrashResult{Rows: rows, Results: byName},
	} {
		if got := ObsExpositions(res); !slices.Equal(got, want) {
			t.Errorf("%T: expositions %v, want %v in row order", res, got, want)
		}
	}
	if got := ObsExpositions(&DagResult{}); got != nil {
		t.Errorf("a result without per-configuration metrics yielded %v", got)
	}
}
