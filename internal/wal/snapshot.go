package wal

import (
	"encoding/json"
	"fmt"
	"os"

	"lattice/internal/sim"
)

// Snapshot is the coordinator's aggregate durable state as of record
// Seq: everything needed to (a) bound log replay and (b) verify that
// a recovery re-execution reproduced the original run exactly. It
// deliberately does not try to serialize live machine state — event
// closures, heaps, open batches, learned estimates — because the
// simulation is deterministic: Seed plus the inputs regenerate all of
// that, and the latest journal checkpoint here is the cross-check. The
// inputs are not in the snapshot file: they live, once, in the input
// segment, and the snapshot names the prefix of it that it covers — so
// a snapshot is a few hundred bytes however long the run.
type Snapshot struct {
	Version int      `json:"version"`
	Seq     uint64   `json:"seq"`
	At      sim.Time `json:"at"`
	Seed    int64    `json:"seed"`

	// JournalLen and JournalDigest are the latest checkpoint at or
	// before Seq: the SHA-256 over the obs journal's first JournalLen
	// events, in the journal's own framing (0 and empty before the
	// first checkpoint).
	JournalLen    int    `json:"journal_len"`
	JournalDigest string `json:"journal_digest"`

	// Users maps portal tokens to registered email addresses.
	Users map[string]string `json:"users,omitempty"`

	// InputsLen and InputsBytes delimit the input-segment prefix this
	// snapshot covers: the frames of every input with Seq <= Seq. The
	// Log stamps them when it writes the snapshot.
	InputsLen   int   `json:"inputs_len"`
	InputsBytes int64 `json:"inputs_bytes"`

	// Inputs is the input history from genesis — every submission,
	// workflow and registration record with Seq <= Seq, in sequence
	// order — as an in-memory carrier only: Load fills it from the
	// segment prefix, Reset writes the segment from it. Recovery
	// re-injects these; the log tail only adds inputs newer than the
	// snapshot.
	Inputs []Record `json:"-"`
}

// snapshotVersion is the current Snapshot schema version: 2 moved the
// inputs out of the snapshot into the segment, 3 dropped the effect
// aggregates (stability EWMAs, workunit counts) and made the journal
// fingerprint the latest checkpoint.
const snapshotVersion = 3

// writeSnapshot persists snap atomically (temp file + rename, fsync
// before rename) so a crash mid-write always leaves either the old or
// the new snapshot intact, never a torn one.
func writeSnapshot(dir string, snap Snapshot) error {
	snap.Version = snapshotVersion
	data, err := json.Marshal(&snap)
	if err != nil {
		return fmt.Errorf("wal: encoding snapshot: %w", err)
	}
	if err := WriteFileAtomic(SnapshotPath(dir), data); err != nil {
		return fmt.Errorf("wal: writing snapshot: %w", err)
	}
	return nil
}

// readSnapshot loads dir's snapshot, returning (nil, nil) when none
// exists.
func readSnapshot(dir string) (*Snapshot, error) {
	data, err := os.ReadFile(SnapshotPath(dir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: reading snapshot: %w", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("wal: corrupt snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("wal: snapshot is version %d, this build reads version %d", snap.Version, snapshotVersion)
	}
	return &snap, nil
}
