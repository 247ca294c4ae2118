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
// populations — is closures and heaps that no file could capture
// faithfully; what recovery relies on instead is that the whole
// coordinator is deterministic per seed. It rebuilds the deployment
// from cfg, re-injects every logged input at its recorded virtual
// time, and re-executes from genesis up to the durable frontier: the
// log holds every record since genesis, and replay always starts
// there. Each regenerated record is verified against the log record of
// its sequence number as it is emitted, so any divergence — config
// drift, code drift, corruption — stops the rebuild at the offending
// input, or at the first checkpoint past the journal event it changed,
// and fails loudly instead of silently forking history. On success the
// log is reopened after its last whole record — the records the
// rebuild regenerated past it appended — and the deployment continues
// live, mid-batch, with crashes re-armed.
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

	l, err := build(cfg, &rebuild{log: st.Tail})
	if err != nil {
		return nil, err
	}
	rec := l.rec
	rec.begin()
	inputs, err := l.replay(st.Tail, st.Watermark)
	if err != nil {
		return nil, err
	}
	if rec.count < st.LastSeq {
		return nil, fmt.Errorf("core: recovery diverged: regenerated %d of %d durable records", rec.count, st.LastSeq)
	}

	lg, err := wal.Reopen(dir, st, wal.Options{})
	if err != nil {
		return nil, err
	}
	rec.attachLog(lg)
	if err := lg.Err(); err != nil {
		lg.Close() //lint:allow errdrop -- Close returns the same sticky error
		return nil, err
	}
	if l.Faults != nil {
		l.Faults.SetCrashStops(true)
	}
	l.Recovery = &RecoveryReport{
		TornTail:  st.Torn,
		Watermark: st.Watermark,
		Inputs:    inputs,
		Records:   rec.count,
	}
	return l, nil
}

// replay re-executes the run from the log's inputs and returns how many
// it re-applied: inputs recorded before the engine ever stepped are
// applied first (exactly as they originally interleaved with time-zero
// work), then each remaining input is applied after draining the
// engine through its recorded time — the same drain-then-apply the
// original caller performed. Back-to-back inputs at the same instant
// are re-applied back-to-back without running the engine between them.
// The final drain runs to the durable watermark; the recorder halts the
// engine once the last durable record has been regenerated. A
// divergence halts it too, and ends the replay there.
func (l *Lattice) replay(log []wal.Record, watermark sim.Time) (int, error) {
	n, i := 0, 0
	for ; i < len(log); i++ {
		if !log[i].IsInput() {
			continue
		}
		if !log[i].Pre {
			break
		}
		if err := l.applyInput(log[i]); err != nil {
			return n, err
		}
		n++
	}
	// The remaining inputs were originally recorded after the engine
	// had stepped; mark the recorder so re-applying them between
	// engine runs (possibly before this engine's first step) re-emits
	// them without the Pre flag, exactly as the live run did.
	l.rec.setNotPre(true)
	prevAt := sim.Time(math.Inf(-1))
	for ; i < len(log); i++ {
		r := log[i]
		if !r.IsInput() {
			continue
		}
		if r.At != prevAt {
			l.Engine.RunUntil(r.At)
		}
		if err := l.rec.diverged(); err != nil {
			return n, err
		}
		if err := l.applyInput(r); err != nil {
			return n, err
		}
		n++
		prevAt = r.At
	}
	l.rec.setNotPre(false)
	l.Engine.RunUntil(watermark)
	return n, l.rec.diverged()
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

func mustJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("<unencodable: %v>", err)
	}
	return string(data)
}
