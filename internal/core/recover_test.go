package core

import (
	"os"
	"strings"
	"testing"

	"lattice/internal/boinc"
	"lattice/internal/faults"
	"lattice/internal/obs"
	"lattice/internal/phylo"
	"lattice/internal/sim"
	"lattice/internal/wal"
	"lattice/internal/workload"
)

// recoverConfig is a trimmed federation that still exercises every
// durable record kind: stability learning on, submit retries on, a
// BOINC pool for workunit state, hour-scale jobs.
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
// EWMAs and submit-retry backoff state restored (the verification
// inside Recover compares every logged EWMA/backoff record against
// the rebuild), placement decisions identical (full journal stage
// sequence, not just terminal counts), and the final digest
// bit-identical to an uninterrupted same-seed run.
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
	cfg.WAL.SnapshotEvery = 200 // force several snapshot rotations
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

	recovered, err := Recover(dir, cfg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	rep := recovered.Recovery
	if rep == nil {
		t.Fatal("no recovery report")
	}
	if rep.SnapshotSeq == 0 {
		t.Errorf("expected a snapshot before the crash (records=%d)", rep.Records)
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
	// record-for-record verification inside Recover, every backoff
	// decision) survives.
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
	gotEvents := recovered.Obs.Journal.Events()
	wantEvents := twin.Obs.Journal.Events()
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
	recovered, err := Recover(dir, cfg)
	if err != nil {
		t.Fatalf("Recover over torn tail: %v", err)
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
// empty directory falls through to New.
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
	if _, err := Recover(dir, bad); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("seed mismatch not refused: %v", err)
	}

	empty := t.TempDir() + "/fresh"
	cfg2 := recoverConfig(3)
	fresh, err := Recover(empty, cfg2)
	if err != nil {
		t.Fatalf("Recover(empty): %v", err)
	}
	if fresh.Recovery != nil {
		t.Error("fresh deployment reports a recovery")
	}
	if !wal.HasState(empty) {
		// The fresh path must have created a live log (genesis record).
		t.Error("Recover over empty dir did not start a durable log")
	}
}

// TestRecoverOfRecovery crashes a recovered deployment again: the
// post-recovery Reset state must itself be a valid recovery baseline.
func TestRecoverOfRecovery(t *testing.T) {
	dir := t.TempDir() + "/wal"
	cfg := recoverConfig(13)
	sch := crashingSchedule(sim.Time(2*sim.Hour), sim.Time(4*sim.Hour))
	cfg.Faults = sch
	cfg.Durable = dir
	cfg.WAL.SnapshotEvery = 400
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
			lat, err = Recover(dir, cfg)
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
// rides on.
func TestJournalObserverSeesEveryEvent(t *testing.T) {
	eng := sim.NewEngine()
	j := obs.NewJournal(eng)
	var seen []obs.Event
	j.SetObserver(func(ev obs.Event) { seen = append(seen, ev) })
	j.Record("b", "j1", obs.StageSubmit, "r", "d")
	j.Record("b", "j1", obs.StageComplete, "r", "")
	if len(seen) != 2 || seen[0].Stage != obs.StageSubmit || seen[1].Stage != obs.StageComplete {
		t.Fatalf("observer saw %+v", seen)
	}
	d0, err := j.DigestAt(0)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := j.DigestAt(2)
	if err != nil {
		t.Fatal(err)
	}
	if d2 != j.Digest() {
		t.Error("DigestAt(len) != Digest()")
	}
	if d0 == d2 {
		t.Error("empty-prefix digest equals full digest")
	}
	if _, err := j.DigestAt(3); err == nil {
		t.Error("DigestAt past the end did not error")
	}
}

// TestRecorderDigestTracksJournal feeds one event stream to the
// journal and, through the observer hook, to a recorder: the
// snapshot's journal fingerprint must equal the journal's own digest
// and DigestAt at every prefix, since recovery compares exactly these.
func TestRecorderDigestTracksJournal(t *testing.T) {
	eng := sim.NewEngine()
	j := obs.NewJournal(eng)
	rec := newRecorder(eng, 1, nil)
	j.SetObserver(rec.Stage)
	details := []string{"", "policy=full attempt=1", "a\x1fb\nc", strings.Repeat("long detail ", 100)}
	for i, d := range details {
		eng.Schedule(sim.Duration(i)*0.1, func() { j.Record("batch", "job", obs.StagePlace, "pbs-01", d) })
		eng.Run()
		snap := rec.snapshot()
		at, err := j.DigestAt(snap.JournalLen)
		if err != nil {
			t.Fatal(err)
		}
		if snap.JournalLen != i+1 || snap.JournalDigest != j.Digest() || at != j.Digest() {
			t.Fatalf("after %d events: recorder (%d, %s), journal %s, DigestAt %s",
				i+1, snap.JournalLen, snap.JournalDigest, j.Digest(), at)
		}
	}
}
