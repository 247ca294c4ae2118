package core

import (
	"fmt"
	"strings"
	"testing"

	"lattice/internal/faults"
	"lattice/internal/gsbl"
	"lattice/internal/sim"
)

// arrivalBase is the two-shard door these tests load: ten virtual
// seconds per submission plus two per replicate, so a four-replicate
// submission holds the door for 18 s and arrivals a few seconds apart
// queue behind it.
func arrivalBase(seed int64) Config {
	base := clusterBase(seed)
	base.Ingest = gsbl.IngestConfig{PerSubmissionSeconds: 10, PerReplicateSeconds: 2}
	return base
}

// scheduleArrivals schedules n arrivals gap apart from t = 1 s.
func scheduleArrivals(c *Cluster, n int, gap sim.Duration) {
	for i := 0; i < n; i++ {
		c.ScheduleSubmission(sim.Time(sim.Duration(i)*gap+1), clusterSubmission(fmt.Sprintf("arrival%03d@example.edu", i), int64(700+i)))
	}
}

// TestRecoverShardWithArrivalsInFlight kills both shards of a cluster
// while scheduled arrivals are still coming in and the front doors are
// busy, recovers them in place, and holds every shard to its
// uninterrupted twin. A live arrival and a door drain that share an
// instant fire in the order their events were scheduled; recovery used
// to replay the arrival after the drain and diverged.
func TestRecoverShardWithArrivalsInFlight(t *testing.T) {
	const arrivals = 600
	for _, gap := range []sim.Duration{4, 5, 7, 10, 13} {
		for _, kill := range []sim.Duration{30, 40, 50, 60} {
			gap, kill := gap, kill
			t.Run(fmt.Sprintf("gap%.0fs/kill%.0fmin", gap, kill), func(t *testing.T) {
				t.Parallel()
				killAt := func(int) *faults.Schedule {
					return &faults.Schedule{CrashAt: []sim.Time{sim.Time(kill * sim.Minute)}}
				}
				cfg := ClusterConfig{Shards: 2, Base: arrivalBase(41), ShardFaults: killAt}
				twin, err := NewCluster(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, l := range twin.Shards {
					l.Faults.SetCrashStops(false)
				}
				scheduleArrivals(twin, arrivals, gap)
				runClusterToDone(t, twin, sim.Time(20*sim.Day))

				cfg.DurableRoot = t.TempDir()
				c, err := NewCluster(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer c.CloseDurable()
				scheduleArrivals(c, arrivals, gap)
				for len(c.CrashedShards()) < c.Size() {
					c.RunUntil(sim.Time(kill * sim.Minute))
				}
				for k := range c.Shards {
					if _, err := c.RecoverShard(k); err != nil {
						t.Fatalf("shard %d: %v", k, err)
					}
				}
				if got, want := c.PendingArrivals(), twinPending(t, cfg, gap, kill); got != want {
					t.Errorf("%d arrivals pending after recovery, %d at the kill", got, want)
				}
				runClusterToDone(t, c, sim.Time(20*sim.Day))
				checkConservation(t, c)
				want := twin.ShardDigests()
				for k, got := range c.ShardDigests() {
					if got != want[k] {
						t.Errorf("shard %d digest %.12s != uninterrupted twin %.12s", k, got, want[k])
					}
				}
			})
		}
	}
}

// twinPending is how many arrivals an in-memory run of cfg still has
// pending once every shard has reached its kill.
func twinPending(t *testing.T, cfg ClusterConfig, gap, kill sim.Duration) int {
	t.Helper()
	cfg.DurableRoot = ""
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scheduleArrivals(c, 600, gap)
	c.RunUntil(sim.Time(kill * sim.Minute))
	return c.PendingArrivals()
}

// TestClusterRestartDeliversScheduledArrivals closes a durable cluster
// with arrivals still scheduled and boots a new one on the same root:
// the arrivals were durable from the moment they were scheduled, so the
// rebooted cluster — once it has re-executed to the instant the first
// one stopped at — has the same ones pending, delivers them without
// being told again and ends digest-equal to a cluster that never
// stopped.
func TestClusterRestartDeliversScheduledArrivals(t *testing.T) {
	const arrivals = 40
	const gap = 7 * sim.Minute
	cfg := ClusterConfig{Shards: 2, Base: arrivalBase(43)}
	twin, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scheduleArrivals(twin, arrivals, gap)
	runClusterToDone(t, twin, sim.Time(20*sim.Day))

	cfg.DurableRoot = t.TempDir()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scheduleArrivals(c, arrivals, gap)
	stopped := sim.Time(2 * sim.Hour)
	c.RunUntil(stopped)
	pending := c.PendingArrivals()
	if pending == 0 || pending == arrivals {
		t.Fatalf("%d of %d arrivals pending at the restart, want some delivered and some not", pending, arrivals)
	}
	if err := c.CloseDurable(); err != nil {
		t.Fatal(err)
	}

	again, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("second boot on the same durable root: %v", err)
	}
	defer again.CloseDurable()
	again.RunUntil(stopped)
	if got := again.PendingArrivals(); got != pending {
		t.Errorf("%d arrivals pending after the restart, %d before", got, pending)
	}
	runClusterToDone(t, again, sim.Time(20*sim.Day))
	batches := 0
	for _, l := range again.Shards {
		batches += len(l.Service.Batches())
	}
	if batches != arrivals {
		t.Errorf("%d batches after the restart, want one per arrival (%d)", batches, arrivals)
	}
	want := twin.ShardDigests()
	for k, got := range again.ShardDigests() {
		if got != want[k] {
			t.Errorf("shard %d digest %.12s != uninterrupted twin %.12s", k, got, want[k])
		}
	}
}

// TestInputInsideAnEventFailsTheLog: a submission offered from inside
// an engine handler cannot be replayed where it happened, so a durable
// deployment does not record it; the write-ahead log's sticky error
// says so, at DurableErr and at /grid/status.
func TestInputInsideAnEventFailsTheLog(t *testing.T) {
	cfg := clusterBase(45)
	cfg.Durable = t.TempDir() + "/wal"
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.CloseDurable()
	if _, err := l.SubmitSubmission(clusterSubmission("between@example.edu", 1)); err != nil {
		t.Fatal(err)
	}
	l.Engine.RunUntil(10)
	if err := l.DurableErr(); err != nil {
		t.Fatalf("an input between engine runs failed the log: %v", err)
	}
	l.Engine.ScheduleAt(20, func() {
		if _, err := l.SubmitSubmission(clusterSubmission("inside@example.edu", 2)); err != nil {
			t.Error(err)
		}
	})
	l.Engine.RunUntil(30)
	err = l.DurableErr()
	if err == nil || !strings.Contains(err.Error(), "inside an engine event") {
		t.Fatalf("DurableErr = %v, want the in-handler input refused", err)
	}
	body := serve(l, "/grid/status", "", "", nil).Body.String()
	if !strings.Contains(body, `"durableError"`) || !strings.Contains(body, "inside an engine event") {
		t.Errorf("/grid/status does not report the durable error: %s", body)
	}
}

// TestRejectedArrivalRecovers: a scheduled arrival refused when it is
// scheduled has no WAL record and schedules nothing, so it must leave
// nothing in the journal either — a shard rebuilt from its log would
// otherwise diverge at the checkpoint covering the refusal. The refusal
// is the caller's, kept in IngestErrors; the rebuilt shard runs on to
// the digest of a cluster that never stopped.
func TestRejectedArrivalRecovers(t *testing.T) {
	bad := clusterSubmission("rejected@example.edu", 1)
	bad.Replicates = 0
	load := func(c *Cluster) {
		c.ScheduleSubmission(1, bad)
		scheduleArrivals(c, 40, 7*sim.Minute)
	}
	cfg := ClusterConfig{Shards: 1, Base: arrivalBase(41)}
	twin, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	load(twin)
	if errs := twin.Shards[0].Service.IngestErrors(); len(errs) != 1 {
		t.Fatalf("IngestErrors = %v, want the one refusal", errs)
	}
	runClusterToDone(t, twin, sim.Time(20*sim.Day))

	cfg.DurableRoot = t.TempDir()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.CloseDurable()
	load(c)
	c.RunUntil(sim.Time(2 * sim.Hour))
	if _, err := c.RecoverShard(0); err != nil {
		t.Fatal(err)
	}
	runClusterToDone(t, c, sim.Time(20*sim.Day))
	if got, want := c.Digest(), twin.Digest(); got != want {
		t.Errorf("digest %.12s after recovery, uninterrupted twin %.12s", got, want)
	}
}
