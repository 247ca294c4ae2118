package core

import (
	"encoding/hex"
	"fmt"
	"hash"
	"sync"

	"lattice/internal/gsbl"
	"lattice/internal/obs"
	"lattice/internal/sim"
	"lattice/internal/wal"
	"lattice/internal/workload"
)

// checkpointEvery is the cadence, in journal events, of checkpoint
// records; a fault-stage event is checkpointed wherever it falls (see
// observe).
const checkpointEvery = 64

// recorder is the durability adapter between the live components and
// the write-ahead log. It logs causes, not effects: it implements the
// narrow Durability interfaces of gsbl, dag and portal, which hand it
// the inputs, and observes the obs journal, whose own running digest it
// checkpoints. It owns record sequence numbering and never calls back
// into the components (hook methods run under component locks, so
// re-entry would deadlock).
//
// The same type serves both modes: rebuild (while New opens the log:
// every regenerated record checked against the log record of its Seq as
// it is emitted, with the engine stopped at the first that diverges)
// and then live (log attached, every record appended).
type recorder struct {
	mu   sync.Mutex
	eng  *sim.Engine
	seed int64
	log  *wal.Log // nil while rebuilding

	count      uint64
	journalLen int // the latest checkpoint's
	// sum and hex are the checkpoint digest's buffers, reused.
	sum, hex []byte

	rb *rebuild // nil when live
}

// rebuild is what a recovering recorder verifies against: the log
// wal.Load returned, consumed in step with the regenerated stream.
type rebuild struct {
	// log holds every durable record since genesis; log[i] has Seq
	// i+1. Comparing each regenerated record with the one of its Seq —
	// field for field, Step and Queued included — is what catches an
	// input replay mis-positioned, and names a diverging checkpoint
	// wherever it falls.
	log []wal.Record
	cmp wal.Comparer
	// past holds the records regenerated beyond the log: the rest of
	// the handler that wrote the last one, or genesis for an empty log.
	// They were never durable; attachLog appends them, so sequence
	// numbers stay dense.
	past []wal.Record
	// err is the first divergence; it stops the engine.
	err error
}

// attachLog connects the recorder to a live log. Coming out of a
// rebuild, it first appends the records regenerated past the durable
// frontier; a failed append sticks in lg.
func (rec *recorder) attachLog(lg *wal.Log) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.rb != nil {
		for _, r := range rec.rb.past {
			lg.Append(r)
		}
		rec.rb = nil
	}
	rec.log = lg
}

// begin emits the genesis record (sequence 1).
func (rec *recorder) begin() {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.emit(wal.Record{Kind: wal.KindGenesis, Seed: rec.seed})
}

// emit assigns the next sequence number, stamps the engine's position
// and forwards the record to the log (live) or checks it against the
// log (rebuild). Callers hold rec.mu.
func (rec *recorder) emit(r wal.Record) {
	rec.count++
	r.Seq = rec.count
	r.Step = rec.eng.Steps()
	from := rec.journalLen // the events a checkpoint covers start past here
	if r.Kind == wal.KindCheckpoint {
		rec.journalLen = r.JournalLen
	}
	if rec.log != nil {
		rec.log.Append(r)
	}
	if rb := rec.rb; rb != nil {
		if rb.verify(&r, from); rb.err != nil {
			// Halt the rebuild at the next handler boundary.
			rec.eng.Stop()
		}
	}
}

// verify checks one regenerated record against the log record of its
// Seq, or keeps it for the reopened log when it is past the frontier.
// from is the journal length of the checkpoint before r, for naming
// the events a diverging checkpoint covers. The first mismatch is kept
// and every later record ignored.
func (rb *rebuild) verify(r *wal.Record, from int) {
	if rb.err != nil {
		return
	}
	if want := rb.logged(r.Seq); want != nil {
		rb.compare(r, want, from)
	} else {
		rb.past = append(rb.past, *r)
	}
}

// logged returns the log's record of sequence seq, nil when seq is past
// the durable frontier (or there is no rebuild).
func (rb *rebuild) logged(seq uint64) *wal.Record {
	if rb == nil || seq > uint64(len(rb.log)) {
		return nil
	}
	return &rb.log[seq-1]
}

// compare records a divergence unless got and want are equal field
// for field; a diverging checkpoint is named with the journal events
// (from, got.JournalLen] it covers. Rendering copies got so that the
// caller's record stays off the heap on the path where nothing
// diverges.
func (rb *rebuild) compare(got, want *wal.Record, from int) {
	if rb.err != nil || rb.cmp.Equal(got, want) {
		return
	}
	g := *got
	what := ""
	if g.Kind == wal.KindCheckpoint {
		what = fmt.Sprintf(", the checkpoint of journal events %d–%d", from+1, g.JournalLen)
	}
	rb.err = fmt.Errorf("core: recovery diverged at record %d%s: regenerated %s, log holds %s",
		g.Seq, what, mustJSON(g), mustJSON(want))
}

// diverged returns the rebuild's first divergence, nil while the
// regenerated stream still matches the durable history.
func (rec *recorder) diverged() error {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.rb.err
}

// observe is the journal observer, called under the journal lock after
// each event is hashed: it checkpoints the journal's running digest
// every checkpointEvery events and at every fault-stage event. The
// fault rule is what makes a kill durable: the injector journals each
// kill as a fault event, and its checkpoint is the record that puts the
// recovery watermark at the kill — without it the watermark falls
// before the kill, and the rebuilt coordinator is killed again at the
// same instant. The recorder never calls back into the journal.
func (rec *recorder) observe(ev obs.Event, n int, digest hash.Hash) {
	if n%checkpointEvery != 0 && ev.Stage != obs.StageFault {
		return
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.sum = digest.Sum(rec.sum[:0])
	rec.hex = hex.AppendEncode(rec.hex[:0], rec.sum)
	var d string
	if want := rec.rb.logged(rec.count + 1); want != nil && want.JournalDigest == string(rec.hex) {
		// The rebuild expects this very digest: reuse the log's copy, so a
		// rebuild that matches allocates nothing per checkpoint.
		d = want.JournalDigest
	} else {
		d = string(rec.hex)
	}
	rec.emit(wal.Record{At: ev.At, Kind: wal.KindCheckpoint, JournalLen: n, JournalDigest: d})
}

// Submission implements gsbl.Durability. Queued marks an enqueue behind
// the front door, which replay sends back through the door; Scheduled
// and Due an arrival, which replay schedules again. The record keeps
// the batch record's own submission: gsbl never changes it.
func (rec *recorder) Submission(at sim.Time, b *gsbl.Batch, queued bool) {
	due, scheduled := b.Due()
	rec.input(wal.Record{
		At: at, Kind: wal.KindSubmission, Origin: b.Origin, Sub: &b.Submission, Queued: queued,
		Scheduled: scheduled, Due: due,
	})
}

// Workflow implements dag.Durability: the workflow is an input like a
// submission — stage batches derived from it are regenerated by
// re-execution and deliberately not recorded.
func (rec *recorder) Workflow(at sim.Time, wf workload.Workflow) {
	rec.input(wal.Record{At: at, Kind: wal.KindWorkflow, WF: &wf})
}

// User implements portal.Durability.
func (rec *recorder) User(at sim.Time, token, email string) {
	rec.input(wal.Record{At: at, Kind: wal.KindUser, Token: token, Email: email})
}

// input emits one input record. An input made while the engine is
// firing a handler cannot be replayed where it happened (see sim's
// input rule), so it is not recorded: it becomes the log's sticky error
// instead.
func (rec *recorder) input(r wal.Record) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.eng.Running() {
		if rec.log != nil {
			rec.log.Fail(fmt.Errorf("core: %s input at %v arrived inside an engine event; it cannot be replayed, so the log stops here", r.Kind, r.At))
		}
		return
	}
	rec.emit(r)
}

// DurableErr reports the write-ahead log's sticky error, nil when
// durability is off or healthy.
func (l *Lattice) DurableErr() error {
	if l.rec == nil {
		return nil
	}
	l.rec.mu.Lock()
	defer l.rec.mu.Unlock()
	if l.rec.log == nil {
		return nil
	}
	return l.rec.log.Err()
}

// CloseDurable flushes and closes the write-ahead log. A crashed
// process never gets to call this — recovery does not depend on it.
func (l *Lattice) CloseDurable() error {
	if l.rec == nil {
		return nil
	}
	l.rec.mu.Lock()
	defer l.rec.mu.Unlock()
	if l.rec.log == nil {
		return nil
	}
	return l.rec.log.Close()
}
