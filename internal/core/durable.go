package core

import (
	"encoding/hex"
	"fmt"
	"hash"
	"maps"
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
// checkpoints. It owns record sequence numbering and keeps what
// snapshots capture — the latest checkpoint and the portal accounts —
// from its own bookkeeping, never by calling back into the components
// (hook methods run under component locks, so re-entry would
// deadlock).
//
// The same type serves both modes: live (log attached, every record
// appended) and rebuild (during Recover: every regenerated record
// checked against the durable history as it is emitted, nothing
// retained per record, with the engine stopped once the durable
// frontier is regenerated or the first record diverges).
type recorder struct {
	mu   sync.Mutex
	eng  *sim.Engine
	seed int64
	log  *wal.Log // nil while rebuilding

	// Snapshot state, updated record by record.
	count         uint64
	journalLen    int // the latest checkpoint
	journalDigest string
	users         map[string]string
	// sum and hex are the checkpoint digest's buffers, reused.
	sum, hex []byte

	rb *rebuild // nil when live
	// notPre marks the post-pre phase of replay: the inputs being
	// re-applied were originally recorded after the engine had
	// stepped, but replay applies them between engine runs — possibly
	// before the rebuilt engine's first step — so Steps()==0 must not
	// re-flag them as pre-run inputs.
	notPre bool
}

// rebuild is what a recovering recorder verifies against: the durable
// history wal.Load returned, consumed in step with the regenerated
// stream.
type rebuild struct {
	// inputs is the loaded input history in sequence order; next
	// indexes the one the rebuild must regenerate next. Comparing each
	// regenerated input against it field for field — Seq, At, Pre and
	// Queued included — is what catches an input replay mis-positioned.
	// An input regenerated past the durable frontier was never durable
	// and is appended, so inputs ends as the history Reset publishes.
	inputs []wal.Record
	next   int
	// tail holds the durable records past snapSeq, dense up to lastSeq;
	// the rebuild stops once it has regenerated lastSeq.
	tail             []wal.Record
	snapSeq, lastSeq uint64
	cmp              wal.Comparer
	// captured is the snapshot state at snapSeq, for snapshotsEqual.
	captured *wal.Snapshot
	// err is the first divergence; it stops the engine.
	err error
}

func newRecorder(eng *sim.Engine, seed int64, rb *rebuild) *recorder {
	return &recorder{eng: eng, seed: seed, rb: rb, users: make(map[string]string)}
}

// attachLog connects the recorder to a live log and registers the
// snapshot source. The source callback runs inside Log.Append — i.e.
// inside emit, with rec.mu already held — so it must use the unlocked
// snapshot form.
func (rec *recorder) attachLog(lg *wal.Log) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.log = lg
	lg.SetSnapshotSource(rec.snapshotLocked)
}

// begin emits the genesis record (sequence 1).
func (rec *recorder) begin() {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.emit(wal.Record{Kind: wal.KindGenesis, Seed: rec.seed})
}

// emit assigns the next sequence number, folds the record into the
// snapshot state, and forwards it to the log (live) or checks it
// against the durable history (rebuild). Callers hold rec.mu.
func (rec *recorder) emit(r wal.Record) {
	rec.count++
	r.Seq = rec.count
	from := rec.journalLen // the events a checkpoint covers start past here
	switch r.Kind {
	case wal.KindCheckpoint:
		rec.journalLen, rec.journalDigest = r.JournalLen, r.JournalDigest
	case wal.KindUser:
		rec.users[r.Token] = r.Email
	}
	if rec.log != nil {
		rec.log.Append(r)
	}
	if rb := rec.rb; rb != nil {
		rb.verify(&r, from)
		if rec.count == rb.snapSeq {
			s := rec.snapshotLocked()
			s.InputsLen = rb.next
			rb.captured = &s
		}
		if rb.err != nil || rec.count >= rb.lastSeq {
			// The durable frontier is regenerated (or can no longer
			// be); halt the rebuild at the next handler boundary.
			// Records emitted between here and the actual stop were
			// never durable, but the fresh post-recovery snapshot
			// captures them, so nothing is lost or doubled.
			rec.eng.Stop()
		}
	}
}

// verify checks one regenerated record against the durable history:
// an input against the next input the log holds, any record past the
// snapshot against the tail entry of its Seq. from is the journal
// length of the checkpoint before r, for naming the events a diverging
// checkpoint covers. The first mismatch is kept and every later record
// ignored.
func (rb *rebuild) verify(r *wal.Record, from int) {
	if rb.err != nil {
		return
	}
	if r.IsInput() {
		switch {
		case rb.next < len(rb.inputs):
			rb.compare(r, &rb.inputs[rb.next], from)
			rb.next++
		case r.Seq > rb.lastSeq:
			rb.inputs = append(rb.inputs, *r)
			rb.next++
		default:
			got := *r
			rb.err = fmt.Errorf("core: recovery diverged at record %d: regenerated input %s, the log holds no further input",
				r.Seq, mustJSON(got))
		}
	}
	if want := rb.logged(r.Seq); want != nil {
		rb.compare(r, want, from)
	}
}

// logged returns the log tail's record of sequence seq, nil when seq is
// not past the snapshot or not durable (or there is no rebuild).
func (rb *rebuild) logged(seq uint64) *wal.Record {
	if rb == nil || seq <= rb.snapSeq || seq > rb.lastSeq {
		return nil
	}
	return &rb.tail[seq-rb.snapSeq-1]
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

// snapshotLocked captures the snapshot state as a wal.Snapshot.
// Callers hold rec.mu.
func (rec *recorder) snapshotLocked() wal.Snapshot {
	return wal.Snapshot{
		Seq:           rec.count,
		At:            rec.eng.Now(),
		Seed:          rec.seed,
		JournalLen:    rec.journalLen,
		JournalDigest: rec.journalDigest,
		Users:         maps.Clone(rec.users),
	}
}

// snapshot is the locking wrapper around snapshotLocked.
func (rec *recorder) snapshot() wal.Snapshot {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.snapshotLocked()
}

// diverged returns the rebuild's first divergence, nil while the
// regenerated stream still matches the durable history.
func (rec *recorder) diverged() error {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.rb.err
}

// setNotPre toggles the replay marker (see the field comment).
func (rec *recorder) setNotPre(on bool) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.notPre = on
}

// isPre reports whether an input arriving now should carry the Pre
// mark: nothing has run yet, and we are not replaying inputs that
// originally arrived later. Callers hold rec.mu.
func (rec *recorder) isPre() bool {
	return rec.eng.Steps() == 0 && !rec.notPre
}

// endRebuild hands over the verified input history and returns the
// recorder to live mode.
func (rec *recorder) endRebuild() []wal.Record {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	inputs := rec.rb.inputs
	rec.rb = nil
	return inputs
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
// the request's own submission: gsbl never changes it.
func (rec *recorder) Submission(at sim.Time, r *gsbl.Request, queued bool) {
	rec.input(wal.Record{
		At: at, Kind: wal.KindSubmission, Origin: r.Origin, Sub: &r.Sub, Queued: queued,
		Scheduled: r.Scheduled, Due: r.Due,
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

// input emits one input record, with the Pre flag marking an input that
// arrived before the engine ever stepped, which replay applies before
// running any events. An input made while the engine is firing a
// handler cannot be replayed where it happened (see sim's input rule),
// so it is not recorded: it becomes the log's sticky error instead.
func (rec *recorder) input(r wal.Record) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.eng.Running() {
		if rec.log != nil {
			rec.log.Fail(fmt.Errorf("core: %s input at %v arrived inside an engine event; it cannot be replayed, so the log stops here", r.Kind, r.At))
		}
		return
	}
	r.Pre = rec.isPre()
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
