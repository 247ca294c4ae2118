package core

import (
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"slices"
	"strings"
	"testing"

	"lattice/internal/boinc"
	"lattice/internal/faults"
	"lattice/internal/gsbl"
	"lattice/internal/obs"
	"lattice/internal/phylo"
	"lattice/internal/sim"
	"lattice/internal/wal"
	"lattice/internal/workload"
)

// journalEvents collects the journal through Each, for the tests that
// index, slice or print it.
func journalEvents(j *obs.Journal) []obs.Event {
	var out []obs.Event
	j.Each(func(ev obs.Event) { out = append(out, ev) })
	return out
}

// recoverConfig is a trimmed federation that still exercises the state
// recovery must re-derive without a record of it: stability learning
// on, submit retries on, a BOINC pool with workunits, hour-scale jobs.
func recoverConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.TrainingJobs = 30
	cfg.Scheduler.BundleTargetSeconds = 0
	cfg.Scheduler.StabilityAlpha = 0.2
	for i := range cfg.Resources {
		if cfg.Resources[i].Kind == "boinc" {
			pop := boinc.DefaultPopulation(120)
			cfg.Resources[i].Population = &pop
		}
	}
	return cfg
}

func recoverSubmission() workload.Submission {
	return workload.Submission{
		// Hour-scale jobs (the fault experiment's spec) so the batch is
		// still in flight when the coordinator dies.
		Spec: workload.JobSpec{
			DataType: phylo.Nucleotide, SubstModel: "GTR",
			RateHet: phylo.RateGamma, NumRateCats: 4, GammaShape: 0.5,
			NumTaxa: 48, SeqLength: 2500, SearchReps: 24,
			StartingTree: phylo.StartStepwise, AttachmentsPerTaxon: 30, Seed: 5,
		},
		Replicates: 60,
		Bootstrap:  true,
		UserEmail:  "recover@example.edu",
	}
}

// crashingSchedule is the default hostile schedule plus one or more
// coordinator kills mid-batch.
func crashingSchedule(at ...sim.Time) *faults.Schedule {
	sch := DefaultFaultSchedule()
	// A flaky gatekeeper on the pool the estimator loves most, open
	// from t=0 so it catches the initial placement wave, makes
	// submit-retry backoff state certain to exist before the crash, so
	// the tests genuinely exercise its restoration.
	sch.Events = append(sch.Events, faults.Event{
		At: 0, Kind: faults.KindSubmitFail,
		Resource: "umd-hpc", Duration: 6 * sim.Hour, P: 0.5,
	})
	sch.CrashAt = at
	return sch
}

// pumpBoundary advances the lattice to the next absolute 6-hour
// boundary. Pumping on absolute boundaries (rather than now+6h) keeps
// a recovered run — which resumes mid-interval at the crash time — on
// the same observation grid as an uninterrupted one, so both stop
// checking at the same instant and their journals stay comparable.
func pumpBoundary(lat *Lattice) {
	const step = 6 * sim.Hour
	k := int(float64(lat.Engine.Now()) / float64(step))
	lat.Engine.RunUntil(sim.Time(sim.Duration(k+1) * step))
}

// runToDone pumps the lattice on the boundary grid until the batch is
// terminal.
func runToDone(t *testing.T, lat *Lattice, batchID string) {
	t.Helper()
	deadline := lat.Engine.Now().Add(90 * sim.Day)
	for lat.Engine.Now() < deadline {
		pumpBoundary(lat)
		if lat.Faults != nil && lat.Faults.Crashed() {
			t.Fatal("unexpected crash stop")
		}
		if st, err := lat.Service.Status(batchID); err == nil && st.Done {
			return
		}
	}
	t.Fatal("batch not terminal after 90 days")
}

// TestDurableDigestUnchanged is the zero-cost guarantee: turning
// durability on draws no RNG, schedules no events, and leaves the
// journal digest bit-identical to a durable-off run.
func TestDurableDigestUnchanged(t *testing.T) {
	run := func(durable string) string {
		cfg := recoverConfig(11)
		cfg.Durable = durable
		lat, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		batch, err := lat.SubmitSubmission(recoverSubmission())
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		runToDone(t, lat, batch.ID)
		if err := lat.DurableErr(); err != nil {
			t.Fatalf("wal error: %v", err)
		}
		return lat.Obs.Journal.Digest()
	}
	plain := run("")
	durable := run(t.TempDir() + "/wal")
	if plain != durable {
		t.Fatalf("durable-on digest %s != durable-off %s", durable, plain)
	}
}

// TestRecoverMidBatch is the heart of the tentpole: kill the
// coordinator mid-batch, recover, and prove the resumed deployment is
// indistinguishable from one that never died — learned stability
// EWMAs and submit-retry backoff state restored (neither is logged:
// re-execution re-derives both, and the journal checkpoints verified
// inside the resume cover the placements they drove), placement decisions
// identical (full journal stage sequence, not just terminal counts),
// and the final digest bit-identical to an uninterrupted same-seed run.
func TestRecoverMidBatch(t *testing.T) {
	const seed = 11
	crashAt := sim.Time(4 * sim.Hour)

	// Uninterrupted twin: same schedule, crashes journal but don't
	// stop the engine.
	twinCfg := recoverConfig(seed)
	twinCfg.Faults = crashingSchedule(crashAt)
	twin, err := New(twinCfg)
	if err != nil {
		t.Fatalf("New(twin): %v", err)
	}
	twin.Faults.SetCrashStops(false)
	twinBatch, err := twin.SubmitSubmission(recoverSubmission())
	if err != nil {
		t.Fatalf("submit(twin): %v", err)
	}
	runToDone(t, twin, twinBatch.ID)

	// Durable run: killed at crashAt, then recovered.
	dir := t.TempDir() + "/wal"
	cfg := recoverConfig(seed)
	cfg.Faults = crashingSchedule(crashAt)
	cfg.Durable = dir
	lat, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	batch, err := lat.SubmitSubmission(recoverSubmission())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	batchID := batch.ID
	for !lat.Faults.Crashed() {
		pumpBoundary(lat)
	}
	if err := lat.DurableErr(); err != nil {
		t.Fatalf("wal error before crash: %v", err)
	}
	if st, err := lat.Service.Status(batchID); err != nil || st.Done {
		t.Fatalf("batch finished before the crash (done=%v, err=%v); crash is not mid-batch", st.Done, err)
	}

	// Capture the dying coordinator's learned state, then abandon it
	// without any orderly shutdown — the crash model.
	wantStability := map[string]float64{}
	for _, rs := range cfg.Resources {
		if v, ok := lat.Scheduler.Stability(rs.Name); ok {
			wantStability[rs.Name] = v
		}
	}
	wantJournalLen := lat.Obs.Journal.Len()
	wantDigest := lat.Obs.Journal.Digest()
	wantRetries := lat.Scheduler.Stats().SubmitRetries
	lat = nil

	recovered, err := New(cfg)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	rep := recovered.Recovery
	if rep == nil {
		t.Fatal("no recovery report")
	}
	if rep.Inputs == 0 {
		t.Error("no inputs replayed")
	}

	// Satellite 4: learned stability EWMAs restored exactly.
	for name, want := range wantStability {
		got, ok := recovered.Scheduler.Stability(name)
		if !ok || got != want {
			t.Errorf("stability[%s] = %v (ok=%v) after recovery, want %v", name, got, ok, want)
		}
	}
	// Submit-retry backoff state: the retry counter (and, via the
	// journal checkpoints verified inside the resume, every backoff
	// decision — each is journaled as its requeue's "retry in Ns")
	// survives.
	if got := recovered.Scheduler.Stats().SubmitRetries; got != wantRetries {
		t.Errorf("submit retries = %d after recovery, want %d", got, wantRetries)
	}
	if wantRetries == 0 {
		t.Error("schedule produced no submit retries; backoff restoration untested")
	}
	if got := recovered.Obs.Journal.Len(); got != wantJournalLen {
		t.Errorf("journal length %d after recovery, want %d", got, wantJournalLen)
	}
	if got := recovered.Obs.Journal.Digest(); got != wantDigest {
		t.Errorf("journal digest changed across recovery:\n got %s\nwant %s", got, wantDigest)
	}

	// Resume to completion and compare against the uninterrupted twin:
	// digest, and the explicit stage sequence (placement decisions,
	// not just terminal counts).
	runToDone(t, recovered, batchID)
	if got, want := recovered.Obs.Journal.Digest(), twin.Obs.Journal.Digest(); got != want {
		t.Fatalf("final digest after crash+recovery %s != uninterrupted %s", got, want)
	}
	gotEvents := journalEvents(recovered.Obs.Journal)
	wantEvents := journalEvents(twin.Obs.Journal)
	if len(gotEvents) != len(wantEvents) {
		t.Fatalf("journal has %d events, twin %d", len(gotEvents), len(wantEvents))
	}
	for i := range gotEvents {
		if gotEvents[i] != wantEvents[i] {
			t.Fatalf("stage sequence diverges at event %d: %+v != %+v", i, gotEvents[i], wantEvents[i])
		}
	}
	for name := range wantStability {
		got, _ := recovered.Scheduler.Stability(name)
		want, _ := twin.Scheduler.Stability(name)
		if got != want {
			t.Errorf("final stability[%s] = %v, twin %v", name, got, want)
		}
	}
	if err := recovered.DurableErr(); err != nil {
		t.Fatalf("wal error after recovery: %v", err)
	}
}

// TestRecoverTornTail kills the coordinator, rips bytes off the log
// tail (the torn final frame of a real crash), and recovers from the
// remaining prefix.
func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir() + "/wal"
	cfg := recoverConfig(7)
	cfg.Faults = crashingSchedule(sim.Time(4 * sim.Hour))
	cfg.Durable = dir
	lat, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	batch, err := lat.SubmitSubmission(recoverSubmission())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	for !lat.Faults.Crashed() {
		pumpBoundary(lat)
	}
	fi, err := os.Stat(wal.LogPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal.LogPath(dir), fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	recovered, err := New(cfg)
	if err != nil {
		t.Fatalf("resume over torn tail: %v", err)
	}
	if !recovered.Recovery.TornTail {
		t.Error("torn tail not reported")
	}
	// The record the truncation tore off was the kill note itself, so
	// the rebuild resumes an instant before the scheduled 4h kill and
	// the schedule would fire it again. The process already died once;
	// disarm the re-run.
	recovered.Faults.SetCrashStops(false)
	runToDone(t, recovered, batch.ID)
	terminal := recovered.Obs.Journal.TerminalCounts()
	if len(terminal) < len(batch.Jobs) {
		t.Fatalf("journal tracked %d jobs, want >= %d", len(terminal), len(batch.Jobs))
	}
	for job, n := range terminal {
		if n != 1 {
			t.Errorf("job %s reached %d terminal states", job, n)
		}
	}
}

// TestRecoverGuards pins the error paths: seed mismatch refuses, an
// empty directory starts a fresh log.
func TestRecoverGuards(t *testing.T) {
	dir := t.TempDir() + "/wal"
	cfg := recoverConfig(3)
	cfg.Durable = dir
	lat, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := lat.SubmitSubmission(recoverSubmission()); err != nil {
		t.Fatalf("submit: %v", err)
	}
	lat.Run(sim.Hour)

	bad := recoverConfig(4)
	bad.Durable = dir
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("seed mismatch not refused: %v", err)
	}

	empty := t.TempDir() + "/fresh"
	cfg2 := recoverConfig(3)
	cfg2.Durable = empty
	fresh, err := New(cfg2)
	if err != nil {
		t.Fatalf("New over an empty dir: %v", err)
	}
	if fresh.Recovery != nil {
		t.Error("fresh deployment reports a recovery")
	}
	if st, err := wal.Load(empty); st == nil || err != nil {
		// The fresh path must have created a live log (genesis record).
		t.Errorf("New over an empty dir did not start a durable log: %v", err)
	}
}

// TestRecoverOverTornGenesis: a process killed inside its first append
// leaves a log holding the header and part of the genesis frame, which
// is nothing durable. New and NewCluster boot fresh over it instead
// of refusing the directory.
func TestRecoverOverTornGenesis(t *testing.T) {
	tearGenesis := func(dir string) {
		t.Helper()
		data, err := os.ReadFile(wal.LogPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wal.LogPath(dir), data[:logHeader+3], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	booted := func(what, dir string) {
		t.Helper()
		st, err := wal.Load(dir)
		if err != nil || st == nil || st.Tail[0].Kind != wal.KindGenesis || st.Torn {
			t.Fatalf("%s: log after the fresh boot: %+v, %v", what, st, err)
		}
	}

	cfg := recoverConfig(3)
	cfg.Durable = t.TempDir() + "/wal"
	lat, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := lat.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	tearGenesis(cfg.Durable)
	fresh, err := New(cfg)
	if err != nil {
		t.Fatalf("New over a torn genesis: %v", err)
	}
	if fresh.Recovery != nil {
		t.Errorf("fresh boot reports a recovery: %+v", fresh.Recovery)
	}
	if err := fresh.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	booted("flat", cfg.Durable)

	ccfg := ClusterConfig{Shards: 2, Base: clusterBase(31), DurableRoot: t.TempDir()}
	c, err := NewCluster(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	tearGenesis(c.shardConfig(1).Durable)
	again, err := NewCluster(ccfg)
	if err != nil {
		t.Fatalf("NewCluster over a torn genesis: %v", err)
	}
	if again.Shards[0].Recovery == nil || again.Shards[1].Recovery != nil {
		t.Errorf("recovery reports %+v, %+v; want shard 0 recovered and shard 1 booted fresh",
			again.Shards[0].Recovery, again.Shards[1].Recovery)
	}
	if err := again.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	booted("shard 1", again.shardConfig(1).Durable)
}

// TestRecoverOfRecovery crashes a recovered deployment again: the log
// a recovery reopened and appended to must itself be a valid recovery
// baseline.
func TestRecoverOfRecovery(t *testing.T) {
	dir := t.TempDir() + "/wal"
	cfg := recoverConfig(13)
	sch := crashingSchedule(sim.Time(2*sim.Hour), sim.Time(4*sim.Hour))
	cfg.Faults = sch
	cfg.Durable = dir
	lat, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	batch, err := lat.SubmitSubmission(recoverSubmission())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	batchID := batch.ID
	crashes := 0
	deadline := lat.Engine.Now().Add(90 * sim.Day)
	for lat.Engine.Now() < deadline {
		pumpBoundary(lat)
		if lat.Faults.Crashed() {
			crashes++
			lat, err = New(cfg)
			if err != nil {
				t.Fatalf("recovery %d: %v", crashes, err)
			}
			continue
		}
		if st, err := lat.Service.Status(batchID); err == nil && st.Done {
			break
		}
	}
	if crashes != 2 {
		t.Fatalf("crashed %d times, want 2", crashes)
	}
	st, err := lat.Service.Status(batchID)
	if err != nil || !st.Done {
		t.Fatalf("batch not terminal after two recoveries: %+v, %v", st, err)
	}

	// Same-seed uninterrupted twin for the digest.
	twinCfg := recoverConfig(13)
	twinCfg.Faults = sch
	twin, err := New(twinCfg)
	if err != nil {
		t.Fatalf("New(twin): %v", err)
	}
	twin.Faults.SetCrashStops(false)
	tb, err := twin.SubmitSubmission(recoverSubmission())
	if err != nil {
		t.Fatalf("submit(twin): %v", err)
	}
	runToDone(t, twin, tb.ID)
	if got, want := lat.Obs.Journal.Digest(), twin.Obs.Journal.Digest(); got != want {
		t.Fatalf("double-recovery digest %s != uninterrupted %s", got, want)
	}
}

// TestJournalObserverSeesEveryEvent pins the obs hook the recorder
// rides on: every event, the journal's length with it, and the running
// digest over exactly those events.
func TestJournalObserverSeesEveryEvent(t *testing.T) {
	eng := sim.NewEngine()
	j := obs.NewJournal(eng)
	empty := j.Digest()
	var seen []obs.Event
	var lens []int
	var sums []string
	j.SetObserver(func(ev obs.Event, n int, digest hash.Hash) {
		seen = append(seen, ev)
		lens = append(lens, n)
		sums = append(sums, hex.EncodeToString(digest.Sum(nil)))
	})
	j.Record("b", "j1", obs.StageSubmit, "r", "d")
	first := j.Digest()
	j.Record("b", "j1", obs.StageComplete, "r", "")
	if len(seen) != 2 || seen[0].Stage != obs.StageSubmit || seen[1].Stage != obs.StageComplete {
		t.Fatalf("observer saw %+v", seen)
	}
	if !slices.Equal(lens, []int{1, 2}) {
		t.Fatalf("observer told lengths %v, want [1 2]", lens)
	}
	if sums[0] != first || sums[1] != j.Digest() || sums[0] == empty || sums[0] == sums[1] {
		t.Fatalf("observer saw digests %v; journal %s then %s (empty %s)", sums, first, j.Digest(), empty)
	}
}

// TestRecorderDigestTracksJournal feeds one event stream to the
// journal and, through the observer hook, to a recorder over a live
// log: the log holds a checkpoint every checkpointEvery events, and at
// every fault event between, whose digest is the journal's own at that
// length, since recovery compares exactly these.
func TestRecorderDigestTracksJournal(t *testing.T) {
	eng := sim.NewEngine()
	j := obs.NewJournal(eng)
	rec := &recorder{eng: eng, seed: 1}
	dir := t.TempDir()
	lg, err := wal.Create(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec.attachLog(lg)
	rec.begin()
	j.SetObserver(rec.observe)
	details := []string{"", "policy=full attempt=1", "a\x1fb\nc", strings.Repeat("long detail ", 100)}
	digests := []string{""} // digests[n]: the journal's after n events
	var lens []int          // the journal lengths checkpoints should cover
	for i := 0; i < 3*checkpointEvery+5; i++ {
		stage := obs.StagePlace
		if i%50 == 49 {
			stage = obs.StageFault
		}
		j.Record("batch", "job", stage, "pbs-01", details[i%len(details)])
		digests = append(digests, j.Digest())
		if n := i + 1; n%checkpointEvery == 0 || stage == obs.StageFault {
			lens = append(lens, n)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := wal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(lens) != 3+3 || len(st.Tail) != 1+len(lens) { // every 64th event, and the faults at 50, 100, 150
		t.Fatalf("%d records after genesis, want %d checkpoints", len(st.Tail)-1, len(lens))
	}
	for i, r := range st.Tail[1:] {
		if n := lens[i]; r.Kind != wal.KindCheckpoint || r.JournalLen != n || r.JournalDigest != digests[n] {
			t.Fatalf("record %d is a %s of (%d, %s), want the checkpoint (%d, %s)", r.Seq, r.Kind, r.JournalLen, r.JournalDigest, n, digests[n])
		}
	}
}

// TestInputAfterMidInstantResume: a restart resumes where the last
// durable record was written, which can be partway through an instant,
// with that instant's events still pending. An input taken there,
// before the next run, is logged at that position, and the next restart
// must replay it there — it used to refuse its own log as diverged. The
// door does not matter to the input, which is direct, but it changes
// the instant's events.
func TestInputAfterMidInstantResume(t *testing.T) {
	for _, n := range []int{16, 17, 20, 40} {
		for _, door := range []bool{false, true} {
			n, door := n, door
			t.Run(fmt.Sprintf("n%d/door=%v", n, door), func(t *testing.T) {
				t.Parallel()
				cfg := clusterBase(5)
				if door {
					cfg.Ingest = gsbl.IngestConfig{PerSubmissionSeconds: 10, PerReplicateSeconds: 2}
				}
				// boot builds a deployment that has taken the n inputs.
				boot := func(cfg Config) *Lattice {
					t.Helper()
					l, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if l.Recovery == nil {
						for i := 0; i < n; i++ {
							offer(t, l, i)
						}
					}
					return l
				}
				durable := cfg
				durable.Durable = t.TempDir()
				first := boot(durable)
				first.Engine.RunUntil(1)
				closeLog(t, first)

				resumed := boot(durable)
				steps, now := resumed.Engine.Steps(), resumed.Engine.Now()
				if peek := boot(cfg); steps == 0 || now >= 1 || !peek.Engine.RunTo(steps, now) || !peek.Engine.RunTo(steps+1, now) {
					t.Fatalf("resumed at step %d, %v; want partway through an instant before the stop", steps, now)
				}
				offer(t, resumed, n)
				resumed.Run(2 * sim.Hour)
				closeLog(t, resumed)

				again, err := New(durable)
				if err != nil {
					t.Fatalf("second resume: %v", err)
				}
				defer again.CloseDurable()

				twin := boot(cfg)
				if !twin.Engine.RunTo(steps, now) {
					t.Fatalf("the uninterrupted twin cannot reach step %d at %v", steps, now)
				}
				offer(t, twin, n)
				for _, l := range []*Lattice{twin, again} {
					l.Engine.RunUntil(sim.Time(2 * sim.Hour))
				}
				if got, want := again.Obs.Journal.Digest(), twin.Obs.Journal.Digest(); got != want {
					t.Errorf("resumed digest %.12s != uninterrupted %.12s", got, want)
				}
			})
		}
	}
}

// offer submits the i-th of a table's direct submissions.
func offer(t *testing.T, l *Lattice, i int) {
	t.Helper()
	if _, err := l.SubmitSubmission(clusterSubmission(fmt.Sprintf("user%02d@example.edu", i), int64(i))); err != nil {
		t.Fatal(err)
	}
}

func closeLog(t *testing.T, l *Lattice) {
	t.Helper()
	if err := l.CloseDurable(); err != nil {
		t.Fatal(err)
	}
}

// TestOutboxSurvivesRecovery: a deployment's mail is what its journal
// holds, so the mail a user was sent before the coordinator died is
// still there, in the same words and order, once core.New has rebuilt
// the deployment from its log, and the recovered deployment goes on to
// send exactly the mail of its uninterrupted same-seed twin. Short
// batches end before the kill, so the outbox read then holds submitted
// and completion mails; the long batch ends after it.
func TestOutboxSurvivesRecovery(t *testing.T) {
	const seed = 13
	crashAt := sim.Time(4 * sim.Hour)
	short := workload.Submission{
		Spec: workload.JobSpec{
			DataType: phylo.Nucleotide, SubstModel: "HKY85",
			RateHet: phylo.RateGamma, NumRateCats: 4, GammaShape: 0.5,
			NumTaxa: 12, SeqLength: 500, SearchReps: 1,
			StartingTree: phylo.StartStepwise, AttachmentsPerTaxon: 10, Seed: 7,
		},
		Replicates: 3,
		UserEmail:  "short@example.edu",
	}
	start := func(lat *Lattice) string {
		t.Helper()
		long, err := lat.SubmitSubmission(recoverSubmission())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := lat.SubmitSubmission(short); err != nil {
				t.Fatal(err)
			}
		}
		return long.ID
	}

	twinCfg := recoverConfig(seed)
	twinCfg.Faults = crashingSchedule(crashAt)
	twin, err := New(twinCfg)
	if err != nil {
		t.Fatal(err)
	}
	twin.Faults.SetCrashStops(false)
	runToDone(t, twin, start(twin))

	cfg := recoverConfig(seed)
	cfg.Faults = crashingSchedule(crashAt)
	cfg.Durable = t.TempDir() + "/wal"
	lat, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	long := start(lat)
	for !lat.Faults.Crashed() {
		pumpBoundary(lat)
	}
	seen := lat.Service.Sent()
	completions := 0
	for _, m := range seen {
		if strings.HasSuffix(m.Subject, " complete") {
			completions++
		}
	}
	if completions != 3 || len(seen) != 7 {
		t.Fatalf("fixture: %d mails (%d completions) before the kill, want the 4 submitted and 3 completion mails", len(seen), completions)
	}
	lat = nil

	recovered, err := New(cfg)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := recovered.Service.Sent(); !slices.Equal(got, seen) {
		t.Fatalf("outbox after recovery:\n%+v\nbefore the kill:\n%+v", got, seen)
	}
	runToDone(t, recovered, long)
	got, want := recovered.Service.Sent(), twin.Service.Sent()
	if !slices.Equal(got, want) {
		t.Fatalf("recovered outbox (%d mails) differs from the uninterrupted twin's (%d)", len(got), len(want))
	}
	if len(got) <= len(seen) || !slices.Equal(got[:len(seen)], seen) {
		t.Fatalf("the %d mails seen before the kill are not a prefix of the %d after it", len(seen), len(got))
	}
	if err := recovered.DurableErr(); err != nil {
		t.Fatal(err)
	}
}
