package core

import (
	"encoding/json"
	"fmt"
	"math"

	"lattice/internal/gsbl"
	"lattice/internal/sim"
	"lattice/internal/wal"
)

// RecoveryReport summarizes what Recover rebuilt.
type RecoveryReport struct {
	// SnapshotSeq is the snapshot the rebuild verified against (0 when
	// the run crashed before its first snapshot).
	SnapshotSeq uint64
	// TailRecords is how many post-snapshot log records were verified.
	TailRecords int
	// TornTail reports that the final log record was truncated
	// mid-write and dropped.
	TornTail bool
	// Watermark is the virtual time the rebuild resumed at.
	Watermark sim.Time
	// Inputs is how many submissions/registrations were re-injected.
	Inputs int
	// Records is the total durable record count at resume.
	Records uint64
}

// Recover resumes a deployment from the durable state in dir. The
// simulation's machine state — event queues, half-run batches, host
// populations — is closures and heaps that no snapshot could capture
// faithfully; what recovery relies on instead is that the whole
// coordinator is deterministic per seed. It rebuilds the deployment
// from cfg, re-injects every logged input at its recorded virtual
// time, and re-executes up to the durable frontier. Each regenerated
// record is verified against the durable history as it is emitted —
// inputs against the logged inputs, checkpoints of the journal's digest
// past the snapshot against the log tail, the latest checkpoint and the
// portal accounts at the snapshot point against the snapshot — so any
// divergence — config drift, code drift, corruption — stops the rebuild
// at the offending record, or at the first checkpoint past the journal
// event it changed, and fails loudly instead of silently forking
// history. On success the directory is
// reset to a fresh snapshot at the frontier and the deployment
// continues live, mid-batch, with crashes re-armed.
//
// Re-injection rests on sim's input rule. An input either entered
// between engine runs — replay drains the engine to its time, then
// applies it — or was scheduled — a submission with a due time, whose
// re-applied record installs the same arrival event at the same
// (at, seq), so arrivals not yet due at the frontier come back without
// any bookkeeping outside the log. An input made inside an engine
// handler fits neither; the recorder refuses it and fails the log.
//
// When dir holds no durable state, Recover is New with cfg.Durable
// set to dir.
func Recover(dir string, cfg Config) (*Lattice, error) {
	st, err := wal.Load(dir)
	if err != nil {
		return nil, err
	}
	cfg.Durable = dir
	if st == nil {
		return New(cfg)
	}
	if st.Seed != cfg.Seed {
		return nil, fmt.Errorf("core: durable state in %s was written with seed %d, config has seed %d", dir, st.Seed, cfg.Seed)
	}

	inputs := st.Inputs()
	rb := &rebuild{inputs: inputs, tail: st.Tail, lastSeq: st.LastSeq}
	if st.Snap != nil {
		rb.snapSeq = st.Snap.Seq
	}
	l, err := build(cfg, rb)
	if err != nil {
		return nil, err
	}
	rec := l.rec
	rec.begin()

	if err := l.replay(inputs, st.Watermark); err != nil {
		return nil, err
	}
	if err := l.verifyRebuild(st, len(inputs)); err != nil {
		return nil, err
	}

	// The rebuilt state becomes the new durable baseline: fresh
	// snapshot at the frontier over the verified input history, empty
	// log, crashes re-armed.
	snap := rec.snapshot()
	snap.Inputs = rec.endRebuild()
	if st.Snap != nil { // the segment prefix Reset keeps
		snap.InputsLen, snap.InputsBytes = st.Snap.InputsLen, st.Snap.InputsBytes
	}
	lg, err := wal.Reset(dir, snap, cfg.WAL)
	if err != nil {
		return nil, err
	}
	rec.attachLog(lg)
	if l.Faults != nil {
		l.Faults.SetCrashStops(true)
	}
	l.Recovery = &RecoveryReport{
		TailRecords: len(st.Tail),
		TornTail:    st.Torn,
		Watermark:   st.Watermark,
		Inputs:      len(inputs),
		Records:     rec.count,
	}
	if st.Snap != nil {
		l.Recovery.SnapshotSeq = st.Snap.Seq
	}
	return l, nil
}

// replay re-executes the run: inputs recorded before the engine ever
// stepped are applied first (exactly as they originally interleaved
// with time-zero work), then each remaining input is applied after
// draining the engine through its recorded time — the same
// drain-then-apply the original caller performed. Back-to-back inputs
// at the same instant are re-applied back-to-back without running the
// engine between them. The final drain runs to the durable watermark;
// the recorder halts the engine once the last durable record has been
// regenerated. A divergence halts it too, and ends the replay there.
func (l *Lattice) replay(inputs []wal.Record, watermark sim.Time) error {
	i := 0
	for ; i < len(inputs) && inputs[i].Pre; i++ {
		if err := l.applyInput(inputs[i]); err != nil {
			return err
		}
	}
	// The remaining inputs were originally recorded after the engine
	// had stepped; mark the recorder so re-applying them between
	// engine runs (possibly before this engine's first step) re-emits
	// them without the Pre flag, exactly as the live run did.
	l.rec.setNotPre(true)
	prevAt := sim.Time(math.Inf(-1))
	for ; i < len(inputs); i++ {
		r := inputs[i]
		if r.At != prevAt {
			l.Engine.RunUntil(r.At)
		}
		if err := l.rec.diverged(); err != nil {
			return err
		}
		if err := l.applyInput(r); err != nil {
			return err
		}
		prevAt = r.At
	}
	l.rec.setNotPre(false)
	l.Engine.RunUntil(watermark)
	return l.rec.diverged()
}

// applyInput re-injects one logged input. A submission goes back
// through the one door it came in by: the record's origin, Queued bit
// and due time rebuild the request, so the same record is re-emitted, a
// scheduled arrival's event is installed again, a submission the
// admission layer shed re-sheds deterministically (a decision, not a
// replay error), and core's reference fork fires exactly when it did
// live.
func (l *Lattice) applyInput(r wal.Record) error {
	switch r.Kind {
	case wal.KindUser:
		l.Portal.RestoreUser(r.Token, r.Email)
		return nil
	case wal.KindWorkflow:
		if r.WF == nil {
			return fmt.Errorf("core: workflow record %d has no payload", r.Seq)
		}
		if _, err := l.SubmitWorkflow(*r.WF); err != nil {
			return fmt.Errorf("core: replaying workflow record %d: %w", r.Seq, err)
		}
		return nil
	case wal.KindSubmission:
		if r.Sub == nil {
			return fmt.Errorf("core: submission record %d has no payload", r.Seq)
		}
		req := gsbl.Request{Sub: *r.Sub, Origin: r.Origin, Direct: !r.Queued, Scheduled: r.Scheduled, Due: r.Due}
		if _, err := l.submit(req); err != nil {
			return fmt.Errorf("core: replaying submission record %d: %w", r.Seq, err)
		}
		return nil
	}
	return fmt.Errorf("core: cannot replay record %d of kind %q", r.Seq, r.Kind)
}

// verifyRebuild closes the verification the recorder did record by
// record during the replay: the whole durable history must have been
// regenerated — every record up to the frontier, every input — and
// the snapshot must match the rebuild's state at the snapshot point,
// whose checkpoint fingerprints the rebuilt journal up to there. This
// is what turns "deterministic re-execution" from an assumption into an
// invariant.
func (l *Lattice) verifyRebuild(st *wal.State, inputs int) error {
	rec := l.rec
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rb := rec.rb
	if rb.err != nil {
		return rb.err
	}
	if rec.count < st.LastSeq || rb.next < inputs {
		return fmt.Errorf("core: recovery diverged: regenerated %d of %d durable records, %d of %d inputs",
			rec.count, st.LastSeq, rb.next, inputs)
	}
	if st.Snap != nil {
		if rb.captured == nil {
			return fmt.Errorf("core: recovery never reached snapshot seq %d", st.Snap.Seq)
		}
		if err := snapshotsEqual(rb.captured, st.Snap); err != nil {
			return fmt.Errorf("core: recovery diverged from snapshot at seq %d: %w", st.Snap.Seq, err)
		}
	}
	return nil
}

// snapshotsEqual compares two snapshots via canonical JSON (maps
// marshal key-sorted; float64 round-trips exactly).
func snapshotsEqual(a, b *wal.Snapshot) error {
	x := *a
	y := *b
	// Version and InputsBytes are stamped at write time; the captured
	// twin never was. (InputsLen it does carry: the inputs regenerated
	// up to the snapshot point.)
	x.Version, y.Version = 0, 0
	x.InputsBytes, y.InputsBytes = 0, 0
	if mustJSON(x) != mustJSON(y) {
		return fmt.Errorf("rebuilt state %s != durable %s", mustJSON(x), mustJSON(y))
	}
	return nil
}

func mustJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("<unencodable: %v>", err)
	}
	return string(data)
}
