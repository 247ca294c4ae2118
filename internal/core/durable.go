package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sync"

	"lattice/internal/obs"
	"lattice/internal/sim"
	"lattice/internal/wal"
	"lattice/internal/workload"
)

// recorder is the durability adapter between the live components and
// the write-ahead log. It implements the narrow Durability interfaces
// of obs (as the journal observer), metasched, boinc, gsbl and
// portal; owns record sequence numbering; and maintains the aggregate
// shadow state that snapshots capture — all from its own bookkeeping,
// never by calling back into the components (hook methods run under
// component locks, so re-entry would deadlock).
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

	// Shadow aggregates, updated record by record.
	count      uint64
	journalLen int
	jhash      hash.Hash
	jscratch   []byte // obs.HashEvent framing buffer, reused per stage record
	stability  map[string]float64
	boincState map[string]int
	users      map[string]string

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
	// captured is the aggregate state at snapSeq, for snapshotsEqual.
	captured *wal.Snapshot
	// err is the first divergence; it stops the engine.
	err error
}

func newRecorder(eng *sim.Engine, seed int64, rb *rebuild) *recorder {
	return &recorder{
		eng:        eng,
		seed:       seed,
		rb:         rb,
		jhash:      sha256.New(),
		stability:  make(map[string]float64),
		boincState: make(map[string]int),
		users:      make(map[string]string),
	}
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
// shadow aggregates, and forwards it to the log (live) or checks it
// against the durable history (rebuild). Callers hold rec.mu.
func (rec *recorder) emit(r wal.Record) {
	rec.count++
	r.Seq = rec.count
	switch r.Kind {
	case wal.KindStage:
		rec.journalLen++
		rec.jscratch = obs.HashEvent(rec.jhash, rec.jscratch, obs.Event{
			At: r.At, Batch: r.Batch, Job: r.Job,
			Stage: obs.Stage(r.Stage), Resource: r.Resource, Detail: r.Detail,
		})
	case wal.KindEWMA:
		rec.stability[r.Resource] = r.Value
	case wal.KindWorkunit:
		rec.boincState[r.State]++
	case wal.KindUser:
		rec.users[r.Token] = r.Email
	}
	if rec.log != nil {
		rec.log.Append(r)
	}
	if rb := rec.rb; rb != nil {
		rb.verify(&r)
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
// snapshot against the tail entry of its Seq. The first mismatch is
// kept and every later record ignored.
func (rb *rebuild) verify(r *wal.Record) {
	if rb.err != nil {
		return
	}
	if r.IsInput() {
		switch {
		case rb.next < len(rb.inputs):
			rb.compare(r, &rb.inputs[rb.next])
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
	if r.Seq > rb.snapSeq && r.Seq <= rb.lastSeq {
		rb.compare(r, &rb.tail[r.Seq-rb.snapSeq-1])
	}
}

// compare records a divergence unless got and want are equal field
// for field. Rendering copies got so that the caller's record stays
// off the heap on the path where nothing diverges.
func (rb *rebuild) compare(got, want *wal.Record) {
	if rb.err != nil || rb.cmp.Equal(got, want) {
		return
	}
	g := *got
	rb.err = fmt.Errorf("core: recovery diverged at record %d: regenerated %s, log holds %s",
		got.Seq, mustJSON(g), mustJSON(want))
}

// snapshotLocked captures the aggregate state as a wal.Snapshot.
// Callers hold rec.mu.
func (rec *recorder) snapshotLocked() wal.Snapshot {
	return wal.Snapshot{
		Seq:           rec.count,
		At:            rec.eng.Now(),
		Seed:          rec.seed,
		JournalLen:    rec.journalLen,
		JournalDigest: hex.EncodeToString(rec.jhash.Sum(nil)),
		Stability:     copyMap(rec.stability),
		Boinc:         copyMap(rec.boincState),
		Users:         copyMap(rec.users),
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

func copyMap[V any](m map[string]V) map[string]V {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Stage implements the obs journal observer. Called under the journal
// lock; the recorder never calls back into the journal.
func (rec *recorder) Stage(ev obs.Event) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.emit(wal.Record{
		At: ev.At, Kind: wal.KindStage,
		Batch: ev.Batch, Job: ev.Job, Stage: string(ev.Stage),
		Resource: ev.Resource, Detail: ev.Detail,
	})
}

// EWMA implements metasched.Durability.
func (rec *recorder) EWMA(at sim.Time, resource string, stability float64) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.emit(wal.Record{At: at, Kind: wal.KindEWMA, Resource: resource, Value: stability})
}

// Backoff implements metasched.Durability.
func (rec *recorder) Backoff(at sim.Time, job, resource string, attempt int, backoff sim.Duration) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.emit(wal.Record{
		At: at, Kind: wal.KindBackoff, Job: job, Resource: resource,
		Attempt: attempt, Value: float64(backoff),
	})
}

// Workunit implements boinc.Durability.
func (rec *recorder) Workunit(at sim.Time, job, state, detail string) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.emit(wal.Record{At: at, Kind: wal.KindWorkunit, Job: job, State: state, Detail: detail})
}

// Submission implements gsbl.Durability. Queued marks an enqueue behind
// the front door, which replay sends back through the door; the Pre
// flag marks inputs that arrived before the engine ever stepped, which
// replay must apply before running any events.
func (rec *recorder) Submission(at sim.Time, origin string, queued bool, sub workload.Submission) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	s := sub
	rec.emit(wal.Record{
		At: at, Kind: wal.KindSubmission, Origin: origin, Sub: &s, Queued: queued,
		Pre: rec.isPre(),
	})
}

// Workflow implements dag.Durability: the workflow is an input like a
// submission — stage batches derived from it are regenerated by
// re-execution and deliberately not recorded.
func (rec *recorder) Workflow(at sim.Time, wf workload.Workflow) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	w := wf
	rec.emit(wal.Record{
		At: at, Kind: wal.KindWorkflow, WF: &w,
		Pre: rec.isPre(),
	})
}

// User implements portal.Durability.
func (rec *recorder) User(at sim.Time, token, email string) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.emit(wal.Record{
		At: at, Kind: wal.KindUser, Token: token, Email: email,
		Pre: rec.isPre(),
	})
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
