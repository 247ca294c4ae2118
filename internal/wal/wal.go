// Package wal is the coordinator's crash-consistent durability layer:
// one append-only, length-prefixed, checksummed log per durable
// directory, wal.log, never truncated. The log holds causes, not
// effects: the seed (genesis), every input that entered the coordinator
// — submissions, workflows, portal user registrations — and
// checkpoints of the obs journal's own running digest. Because the
// simulation is deterministic per seed, inputs plus seed are sufficient
// to reconstruct the full machine state: recovery re-executes the run
// from genesis, re-injecting each input at its recorded position — the
// engine step and virtual time it was written at — and checks every
// regenerated record against the log byte for byte. A checkpoint
// fingerprints every journal event up to it, so the lifecycle
// transitions the journal records need no record of their own. The
// only crash window is the frame being written when the process died:
// Load drops that torn tail and Reopen cuts it off before the next
// append.
//
// The package depends only on the standard library plus the sim and
// workload value types; it knows nothing about the components that
// feed it (internal/core owns that adapter).
package wal

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"

	"lattice/internal/sim"
	"lattice/internal/workload"
)

// Kind tags what a Record durably witnesses.
type Kind string

const (
	// KindGenesis is the first record of every log: the seed the whole
	// deterministic run derives from.
	KindGenesis Kind = "genesis"
	// KindStage carries one obs journal event (submit, validate,
	// place, dispatch, ...). The coordinator never logs one — a
	// checkpoint covers the journal — but the kind stays readable for
	// tools that log journal events of their own, such as the
	// benchmark's append probe.
	KindStage Kind = "stage"
	// KindCheckpoint fingerprints the obs journal: its length and the
	// journal's own running digest over that many events. Recovery
	// regenerates it and compares; nothing is applied from it.
	KindCheckpoint Kind = "checkpoint"
	// KindSubmission is an input: a batch submission entering the
	// coordinator (origin "service", "portal" or "core").
	KindSubmission Kind = "submission"
	// KindUser is an input: a portal account registration.
	KindUser Kind = "portal-user"
	// KindWorkflow is an input: a stage-DAG workflow entering the
	// workflow engine. Stage batches derived from it are *not*
	// inputs — re-execution regenerates them from this record.
	KindWorkflow Kind = "workflow"
)

// Record is one durable log entry. Seq is a dense 1-based sequence
// number assigned by the single writer; Step and At are the engine's
// position when the record was written — the events fired so far and
// the virtual time — which replay returns a rebuilt engine to before
// it re-applies an input. The remaining fields are a union keyed by Kind. The
// json tags only shape how a record is rendered in error messages;
// the durable encoding is the binary one in codec.go.
type Record struct {
	Seq  uint64   `json:"seq"`
	Step uint64   `json:"step"`
	At   sim.Time `json:"at"`
	Kind Kind     `json:"kind"`

	// KindStage payload (obs.Event fields).
	Batch    string `json:"batch,omitempty"`
	Job      string `json:"job,omitempty"`
	Stage    string `json:"stage,omitempty"`
	Resource string `json:"resource,omitempty"`
	Detail   string `json:"detail,omitempty"`

	// KindCheckpoint payload: the journal's length and its hex SHA-256
	// over those events, in the journal's own framing.
	JournalLen    int    `json:"journal_len,omitempty"`
	JournalDigest string `json:"journal_digest,omitempty"`

	// KindSubmission payload.
	Origin string               `json:"origin,omitempty"`
	Sub    *workload.Submission `json:"sub,omitempty"`
	// Queued marks a submission that entered through the serialized
	// ingest queue: recovery re-enqueues it (the drain-time scheduling
	// is regenerated by re-execution) instead of scheduling it
	// synchronously.
	Queued bool `json:"queued,omitempty"`
	// Scheduled marks a submission recorded at At that arrives at Due.
	// Recovery re-applies it where it was recorded, which installs the
	// same arrival event; the delivery is derived and never recorded.
	Scheduled bool     `json:"scheduled,omitempty"`
	Due       sim.Time `json:"due,omitempty"`

	// KindWorkflow payload.
	WF *workload.Workflow `json:"wf,omitempty"`

	// KindUser payload.
	Token string `json:"token,omitempty"`
	Email string `json:"email,omitempty"`

	// KindGenesis payload.
	Seed int64 `json:"seed,omitempty"`
}

// IsInput reports whether the record is an external input that
// recovery must re-inject (as opposed to a checkpoint, which
// re-execution regenerates on its own).
func (r *Record) IsInput() bool {
	return r.Kind == KindSubmission || r.Kind == KindUser || r.Kind == KindWorkflow
}

// Options tunes a Log.
type Options struct {
	// Sync fsyncs the log after every append. Off by default: the
	// simulation's crash model is process death, which the page cache
	// survives; power-loss durability costs an fsync per record.
	Sync bool
}

// magic is the log file header. Bump the trailing digits on any
// incompatible framing or record-encoding change; Load refuses every
// other version (a durable directory belongs to one run of one build,
// so there is no migration).
var magic = []byte("LATWAL06")

// frameHeaderSize is the per-record framing overhead: uint32 LE
// payload length followed by uint32 LE CRC32 (IEEE) of the payload.
const frameHeaderSize = 8

// maxFrame bounds a single record's payload so a corrupt length field
// cannot trigger an absurd allocation.
const maxFrame = 16 << 20

// LogPath returns the log file path inside a durable directory.
func LogPath(dir string) string { return filepath.Join(dir, "wal.log") }

// SnapshotPath names a file this format never writes: the snapshot of
// the LATWAL04 format. It stays only for the benchmark, which reports
// the file's size (always 0 now).
func SnapshotPath(dir string) string { return filepath.Join(dir, "snapshot.json") }

// hasState reports whether dir holds recoverable durable state: a log
// Load reads at least one whole frame from, or one it refuses. A log
// whose writer died inside the header or the genesis frame holds
// nothing durable, and Create may start over it.
func hasState(dir string) bool {
	st, err := Load(dir)
	return st != nil || err != nil
}

// Log is a single-writer append-only record log. Errors are sticky:
// after the first failed write every later Append is a no-op and Err
// reports the original failure, so callers may write hot paths
// unchecked and inspect the log at checkpoints.
type Log struct {
	f    *os.File
	buf  []byte // the frame being written, reused
	opts Options
	err  error
}

// Create opens a fresh log in dir, creating the directory if needed.
// It refuses to run over existing durable state — use Load plus Reopen
// (core.New does) to resume, or remove the directory to start over.
func Create(dir string, opts Options) (*Log, error) {
	if hasState(dir) {
		return nil, fmt.Errorf("wal: %s already holds durable state; recover or remove it first", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	f, err := os.OpenFile(LogPath(dir), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(magic); err != nil {
		f.Close() //lint:allow errdrop -- best-effort cleanup after a failed header write
		return nil, fmt.Errorf("wal: writing header: %w", err)
	}
	return &Log{f: f, opts: opts}, nil
}

// Reopen opens the log st was loaded from for appending after its last
// whole frame, first cutting off the torn frame a dead writer may have
// left there, so the next record appended is LastSeq+1.
func Reopen(dir string, st *State, opts Options) (*Log, error) {
	f, err := os.OpenFile(LogPath(dir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := f.Truncate(st.size); err != nil {
		f.Close() //lint:allow errdrop -- best-effort cleanup after a failed truncate
		return nil, fmt.Errorf("wal: cutting the torn tail: %w", err)
	}
	return &Log{f: f, opts: opts}, nil
}

// Append writes one record: the frame is built in the log's own
// buffer and handed to the OS in one write before Append returns. The
// caller owns sequence numbering; records must arrive with dense
// increasing Seq. Failures are sticky (see Err).
func (l *Log) Append(r Record) {
	if l.err != nil {
		return
	}
	if kindCode(r.Kind) == 0 {
		l.err = fmt.Errorf("wal: record %d has unknown kind %q", r.Seq, r.Kind)
		return
	}
	l.buf = appendFrame(l.buf[:0], &r)
	if len(l.buf)-frameHeaderSize > maxFrame {
		l.err = fmt.Errorf("wal: record %d encodes to %d bytes, over the %d-byte frame limit", r.Seq, len(l.buf)-frameHeaderSize, maxFrame)
		return
	}
	if _, err := l.f.Write(l.buf); err != nil {
		l.err = fmt.Errorf("wal: appending record %d: %w", r.Seq, err)
		return
	}
	if l.opts.Sync {
		if err := l.f.Sync(); err != nil {
			l.err = fmt.Errorf("wal: syncing record %d: %w", r.Seq, err)
		}
	}
}

// Err returns the first write failure, if any.
func (l *Log) Err() error { return l.err }

// Fail makes err the sticky error unless one is already set, for a
// writer that finds its own history can no longer be made durable.
func (l *Log) Fail(err error) { l.err = cmp.Or(l.err, err) }

// Close flushes and closes the log file.
func (l *Log) Close() error {
	if l.f == nil {
		return l.err
	}
	if err := l.f.Sync(); err != nil && l.err == nil {
		l.err = fmt.Errorf("wal: syncing on close: %w", err)
	}
	if err := l.f.Close(); err != nil && l.err == nil {
		l.err = fmt.Errorf("wal: closing: %w", err)
	}
	l.f = nil
	return l.err
}
