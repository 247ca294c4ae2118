package core

import (
	"encoding/json"
	"fmt"

	"lattice/internal/admit"
	"lattice/internal/gsbl"
	"lattice/internal/sim"
	"lattice/internal/wal"
)

// RecoveryReport summarizes what New rebuilt from a durable directory
// that already held state.
type RecoveryReport struct {
	// TornTail reports that the final log record was truncated
	// mid-write and dropped.
	TornTail bool
	// Watermark is the virtual time of the last durable record, where
	// the rebuild resumed.
	Watermark sim.Time
	// Inputs is how many submissions/registrations were re-injected.
	Inputs int
	// Records is the total durable record count at resume.
	Records uint64
}

// open opens the write-ahead log in dir for l, which build wired to
// record there, the way a database opens its file. The simulation's
// machine state — event queues, half-run batches, host populations — is
// closures and heaps that no file could capture faithfully; what
// recovery relies on instead is that the whole coordinator is
// deterministic per seed. So open re-executes the log from genesis: it
// returns the engine to each record's position (Record.Step, Record.At)
// and re-applies each input there, which is sim's input rule, so an
// input lands between the same two events it came between live, in the
// middle of an instant included, and a scheduled arrival's record
// installs the same arrival event at the same (at, seq). Each
// regenerated record is verified against the log record of its sequence
// number as it is emitted, so any divergence — config drift, code
// drift, corruption — stops the rebuild at the offending input, or at
// the first checkpoint past the journal event it changed, and fails
// loudly instead of silently forking history. The log is then reopened
// after its last whole record, the records the rebuild regenerated past
// it appended, and the deployment continues live, mid-batch, with
// crashes re-armed.
//
// A directory without durable state is the rebuild of an empty log:
// nothing replays, genesis is regenerated past the end, and a fresh log
// is created to hold it.
func (l *Lattice) open(dir string) error {
	st, err := wal.Load(dir)
	if err != nil {
		return err
	}
	var log []wal.Record
	if st != nil {
		if st.Seed != l.rec.seed {
			return fmt.Errorf("core: durable state in %s was written with seed %d, config has seed %d", dir, st.Seed, l.rec.seed)
		}
		log = st.Tail
	}
	if l.Faults != nil {
		// The rebuild runs straight through the kills it re-executes.
		l.Faults.SetCrashStops(false)
	}
	rec := l.rec
	rec.rb = &rebuild{log: log}
	rec.begin()
	inputs, err := l.replay(log)
	if err != nil {
		return err
	}
	if rec.count < uint64(len(log)) {
		return fmt.Errorf("core: recovery diverged: regenerated %d of %d durable records", rec.count, len(log))
	}

	var lg *wal.Log
	if st == nil {
		lg, err = wal.Create(dir, wal.Options{})
	} else {
		lg, err = wal.Reopen(dir, st, wal.Options{})
	}
	if err != nil {
		return err
	}
	rec.attachLog(lg)
	if err := lg.Err(); err != nil {
		lg.Close() //lint:allow errdrop -- Close returns the same sticky error
		return err
	}
	if l.Faults != nil {
		l.Faults.SetCrashStops(true)
	}
	if st != nil {
		l.Recovery = &RecoveryReport{
			TornTail:  st.Torn,
			Watermark: log[len(log)-1].At,
			Inputs:    inputs,
			Records:   rec.count,
		}
	}
	return nil
}

// replay re-executes the run from the log and returns how many inputs
// it re-applied: for every record in turn it runs the engine to the
// position the record was written at, and applies the record there if
// it is an input. A checkpoint is never applied, only compared as the
// run regenerates it. A divergence stops the engine and ends the replay
// with an error, and so does a position the rebuilt engine cannot reach.
func (l *Lattice) replay(log []wal.Record) (int, error) {
	n := 0
	for i := range log {
		r := &log[i]
		reached := l.Engine.RunTo(r.Step, r.At)
		if err := l.rec.diverged(); err != nil {
			return n, err
		}
		if !reached {
			return n, fmt.Errorf("core: recovery diverged at record %d: the rebuilt engine cannot reach step %d at %v, where the record was written", r.Seq, r.Step, r.At)
		}
		if !r.IsInput() {
			continue
		}
		if err := l.applyInput(r); err != nil {
			return n, err
		}
		n++
	}
	return n, l.rec.diverged()
}

// applyInput re-injects one logged input. A submission goes back
// through the one door it came in by: the record's origin, Queued bit
// and due time rebuild the request, so the same record is re-emitted, a
// scheduled arrival's event is installed again, a submission the
// admission layer shed re-sheds deterministically (a decision, not a
// replay error), and core's reference fork fires exactly when it did
// live.
func (l *Lattice) applyInput(r *wal.Record) error {
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
			if _, shed := err.(*admit.Rejection); !shed {
				return fmt.Errorf("core: replaying submission record %d: %w", r.Seq, err)
			}
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
