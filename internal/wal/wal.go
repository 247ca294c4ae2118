// Package wal is the coordinator's crash-consistent durability layer:
// an append-only, length-prefixed, checksummed write-ahead log, an
// append-only segment holding every input frame since genesis, and
// periodic atomic snapshots. The log holds causes, not effects: the
// seed (genesis), every input that entered the coordinator —
// submissions, workflows, portal user registrations — and checkpoints
// of the obs journal's own running digest. Because the simulation is
// deterministic per seed, inputs plus seed are sufficient to
// reconstruct the full machine state: recovery re-executes the run from
// genesis, re-injecting each input at its recorded virtual time, and
// checks the regenerated inputs and checkpoints against the log
// byte-for-byte. A checkpoint fingerprints every journal event up to
// it, so the lifecycle transitions the journal records need no record
// of their own. Snapshots bound how much log must be read and verified,
// and truncate the log so its size stays proportional to work since
// the last snapshot. A snapshot holds the latest checkpoint, the portal
// accounts and the length of the input-segment prefix it covers, never
// the inputs themselves, so writing one costs the same however long
// the run has been going.
//
// The package depends only on the standard library plus the sim and
// workload value types; it knows nothing about the components that
// feed it (internal/core owns that adapter).
package wal

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
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
// number assigned by the single writer; At is the virtual time the
// event happened. The remaining fields are a union keyed by Kind. The
// json tags only shape how a record is rendered in error messages;
// the durable encoding is the binary one in codec.go.
type Record struct {
	Seq  uint64   `json:"seq"`
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
	// Pre marks an input that arrived before the engine ever stepped;
	// recovery applies such inputs before running any events so they
	// interleave with organic time-zero work exactly as they did live.
	Pre bool `json:"pre,omitempty"`
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
	// SnapshotEvery is the number of appended records between
	// automatic snapshots (default DefaultSnapshotEvery).
	SnapshotEvery int
	// Sync fsyncs the log after every append. Off by default: the
	// simulation's crash model is process death, which the page cache
	// survives; power-loss durability costs an fsync per record.
	Sync bool
}

// DefaultSnapshotEvery is the automatic snapshot cadence.
const DefaultSnapshotEvery = 4096

// magic is the log file header. Bump the trailing digits on any
// incompatible framing or record-encoding change; Load refuses every
// other version (a durable directory belongs to one run of one build,
// so there is no migration).
var magic = []byte("LATWAL04")

// frameHeaderSize is the per-record framing overhead: uint32 LE
// payload length followed by uint32 LE CRC32 (IEEE) of the payload.
const frameHeaderSize = 8

// maxFrame bounds a single record's payload so a corrupt length field
// cannot trigger an absurd allocation.
const maxFrame = 16 << 20

// LogPath returns the log file path inside a durable directory.
func LogPath(dir string) string { return filepath.Join(dir, "wal.log") }

// SnapshotPath returns the snapshot file path inside a durable
// directory.
func SnapshotPath(dir string) string { return filepath.Join(dir, "snapshot.json") }

// SegmentPath returns the input segment path inside a durable
// directory: the frames of every input record since genesis, in
// sequence order, byte-identical to the frames the log held.
func SegmentPath(dir string) string { return filepath.Join(dir, "inputs.log") }

// HasState reports whether dir holds recoverable durable state — a
// snapshot, or a log with at least one complete frame.
func HasState(dir string) bool {
	if _, err := os.Stat(SnapshotPath(dir)); err == nil {
		return true
	}
	fi, err := os.Stat(LogPath(dir))
	return err == nil && fi.Size() > int64(len(magic))
}

// Log is a single-writer append-only record log. Errors are sticky:
// after the first failed write every later Append is a no-op and Err
// reports the original failure, so callers may write hot paths
// unchecked and inspect the log at checkpoints.
type Log struct {
	dir       string
	f         *os.File
	seg       *os.File // input segment, append-only; opened by the first input
	segLen    int      // complete input frames in the segment
	segBytes  int64    // and the bytes they occupy
	buf       []byte   // the frame being written, reused
	opts      Options
	sinceSnap int
	source    func() Snapshot
	err       error
}

// Create opens a fresh log in dir, creating the directory if needed.
// It refuses to run over existing durable state — use Load plus Reset
// (via core.Recover) to resume, or remove the directory to start over.
func Create(dir string, opts Options) (*Log, error) {
	if HasState(dir) {
		return nil, fmt.Errorf("wal: %s already holds durable state; recover or remove it first", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return open(dir, opts, 0, 0)
}

// Reset atomically replaces dir's durable state with the given
// snapshot, an input segment holding snap.Inputs, and an empty log, and
// returns the log open for appending. This is the post-recovery path:
// the rebuilt coordinator's state becomes the new baseline and replay
// history is discarded. snap.InputsLen and snap.InputsBytes name the
// prefix of snap.Inputs the segment already holds — the loaded
// snapshot's, verified frame for frame by the rebuild (one record has
// one encoding) — so only the inputs past it are written, over
// whatever a dead run left after the prefix. The segment is published
// before the snapshot, and its prefix never changes, so a crash before
// the new snapshot lands still loads.
func Reset(dir string, snap Snapshot, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	seg, err := os.OpenFile(SegmentPath(dir), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening input segment: %w", err)
	}
	// One frame buffer, streamed: the inputs past the prefix can be a
	// snapshot interval's worth.
	w := bufio.NewWriter(io.NewOffsetWriter(seg, snap.InputsBytes))
	var frame []byte
	for i := snap.InputsLen; i < len(snap.Inputs); i++ {
		frame = appendFrame(frame[:0], &snap.Inputs[i])
		w.Write(frame) // a failed write sticks in w; Flush reports it
		snap.InputsBytes += int64(len(frame))
	}
	snap.InputsLen = len(snap.Inputs)
	if err = errors.Join(w.Flush(), seg.Truncate(snap.InputsBytes), seg.Sync(), seg.Close()); err != nil {
		return nil, fmt.Errorf("wal: writing input segment: %w", err)
	}
	if err := writeSnapshot(dir, snap); err != nil {
		return nil, err
	}
	return open(dir, opts, snap.InputsLen, snap.InputsBytes)
}

// open truncates dir's log to its header and returns a Log whose
// input segment holds segLen frames in segBytes bytes.
func open(dir string, opts Options, segLen int, segBytes int64) (*Log, error) {
	f, err := os.OpenFile(LogPath(dir), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(magic); err != nil {
		f.Close() //lint:allow errdrop -- best-effort cleanup after a failed header write
		return nil, fmt.Errorf("wal: writing header: %w", err)
	}
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = DefaultSnapshotEvery
	}
	return &Log{dir: dir, f: f, segLen: segLen, segBytes: segBytes, opts: opts}, nil
}

// openSegment opens the input segment for appending when the first
// input arrives, so a deployment that never takes one never creates
// the file. A segment known to be empty is truncated: whatever a dead
// run left there belongs to no snapshot.
func (l *Log) openSegment() error {
	flag := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if l.segBytes == 0 {
		flag |= os.O_TRUNC
	}
	seg, err := os.OpenFile(SegmentPath(l.dir), flag, 0o644)
	if err != nil {
		return fmt.Errorf("wal: opening input segment: %w", err)
	}
	l.seg = seg
	return nil
}

// SetSnapshotSource installs the callback that captures the
// coordinator's aggregate state for automatic snapshots. The callback
// runs synchronously inside Append, on the writer's goroutine, under
// whatever locks the writer already holds — it must not call back
// into the Log. The Log fills in the input-segment prefix itself.
func (l *Log) SetSnapshotSource(fn func() Snapshot) { l.source = fn }

// Append writes one record: the frame is built in the log's own
// buffer and handed to the OS in one write before Append returns; an
// input's frame goes to the input segment as well. The caller owns
// sequence numbering; records must arrive with dense increasing Seq.
// Failures are sticky (see Err).
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
	if r.IsInput() {
		if l.seg == nil {
			if l.err = l.openSegment(); l.err != nil {
				return
			}
		}
		if _, err := l.seg.Write(l.buf); err != nil {
			l.err = fmt.Errorf("wal: appending input %d to the segment: %w", r.Seq, err)
			return
		}
		l.segLen++
		l.segBytes += int64(len(l.buf))
	}
	if l.opts.Sync {
		if err := l.f.Sync(); err != nil {
			l.err = fmt.Errorf("wal: syncing record %d: %w", r.Seq, err)
			return
		}
	}
	l.sinceSnap++
	if l.source != nil && l.sinceSnap >= l.opts.SnapshotEvery {
		l.snapshot(l.source())
	}
}

// snapshot makes the input segment durable, persists snap atomically
// over the prefix of it written so far, and truncates the log back to
// its header. Record frames appended between the snapshot rename and
// the truncate carry Seq <= snap.Seq and are skipped by Load, so a
// crash anywhere in this window recovers cleanly; a crash before the
// rename leaves the old snapshot over a segment that is merely longer
// than the prefix it names.
func (l *Log) snapshot(snap Snapshot) {
	if l.seg != nil { // else nothing was appended since Create or Reset
		if err := l.seg.Sync(); err != nil {
			l.err = fmt.Errorf("wal: syncing input segment: %w", err)
			return
		}
	}
	snap.InputsLen, snap.InputsBytes = l.segLen, l.segBytes
	if err := writeSnapshot(l.dir, snap); err != nil {
		l.err = err
		return
	}
	if err := l.f.Truncate(int64(len(magic))); err != nil {
		l.err = fmt.Errorf("wal: truncating log after snapshot: %w", err)
		return
	}
	if _, err := l.f.Seek(int64(len(magic)), 0); err != nil {
		l.err = fmt.Errorf("wal: seeking log after snapshot: %w", err)
		return
	}
	l.sinceSnap = 0
}

// Err returns the first write failure, if any.
func (l *Log) Err() error { return l.err }

// Fail makes err the sticky error unless one is already set, for a
// writer that finds its own history can no longer be made durable.
func (l *Log) Fail(err error) { l.err = cmp.Or(l.err, err) }

// Close flushes and closes the log file, and closes the input segment
// (which needs no flush of its own: Load reads only the prefix the
// last snapshot made durable).
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
	if l.seg != nil {
		if err := l.seg.Close(); err != nil && l.err == nil {
			l.err = fmt.Errorf("wal: closing input segment: %w", err)
		}
	}
	l.f, l.seg = nil, nil
	return l.err
}
