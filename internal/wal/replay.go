package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"lattice/internal/sim"
)

// ErrCorruptSegment is wrapped by every Load failure caused by the
// input segment not holding exactly the prefix the snapshot names.
// That prefix was fsynced before the snapshot was published, so no
// crash explains it — and loading a shorter input history would
// silently fork the run.
var ErrCorruptSegment = errors.New("wal: corrupt input segment")

// State is everything Load could recover from a durable directory:
// the latest valid snapshot (if any), the verified log tail past it,
// and the derived replay bounds.
type State struct {
	// Snap is the latest snapshot, nil when none was written yet.
	Snap *Snapshot
	// Tail holds the log records with Seq > Snap.Seq (all records when
	// there is no snapshot), contiguous and checksum-verified.
	Tail []Record
	// Torn reports that the final log frame was truncated mid-write
	// and dropped — expected after a crash, not an error.
	Torn bool
	// Seed is the run's seed, from the snapshot or genesis record.
	Seed int64
	// LastSeq is the newest durable sequence number.
	LastSeq uint64
	// Watermark is the virtual time of the newest durable record —
	// recovery re-executes the run up to here.
	Watermark sim.Time
}

// Inputs returns the full input history in sequence order: the
// snapshot's accumulated inputs followed by any in the tail. Load
// leaves room for the tail's inputs behind the snapshot's, so the
// history is built in the snapshot's own array, without a copy.
func (st *State) Inputs() []Record {
	var in []Record
	if st.Snap != nil {
		in = st.Snap.Inputs
	}
	for i := range st.Tail {
		if st.Tail[i].IsInput() {
			in = append(in, st.Tail[i])
		}
	}
	return in
}

// Load reads dir's durable state: the snapshot, the input-segment
// prefix it covers, then every complete log frame after it. A torn
// final log frame — truncated header, payload short of its declared
// length, or checksum/decode failure that runs into EOF — is dropped
// and flagged Torn; corruption followed by more data is fatal, because
// everything after an undecodable frame is unframed garbage. Segment
// bytes past the snapshot's prefix are ignored (the inputs they hold
// are in the log tail; a torn or orphaned frame there is the crash
// window), but the prefix itself must be intact (ErrCorruptSegment).
// Load returns (nil, nil) when dir holds no state.
func Load(dir string) (*State, error) {
	data, err := os.ReadFile(LogPath(dir))
	if os.IsNotExist(err) {
		data = nil
	} else if err != nil {
		return nil, fmt.Errorf("wal: reading log: %w", err)
	}
	if len(data) >= len(magic) && !bytes.Equal(data[:len(magic)], magic) {
		return nil, fmt.Errorf("wal: log header is %q, this build reads only %q; a durable directory cannot move between format versions — remove it", data[:len(magic)], magic)
	}
	snap, err := readSnapshot(dir)
	if err != nil {
		return nil, err
	}
	st := &State{Snap: snap}
	var sinceSeq uint64 // skip log records the snapshot already covers
	if snap != nil {
		st.Seed = snap.Seed
		st.LastSeq = snap.Seq
		st.Watermark = snap.At
		sinceSeq = snap.Seq
	}
	if len(data) < len(magic) {
		// A missing or header-torn log (crash between snapshot rename
		// and log re-creation) contributes no tail.
		if snap == nil {
			if len(data) == 0 {
				return nil, nil
			}
			return nil, fmt.Errorf("wal: log has no valid header and no snapshot exists")
		}
		st.Torn = st.Torn || len(data) > 0
		return st.withSegment(dir)
	}

	off := len(magic)
	for off < len(data) {
		r, next, err := decodeFrame(data, off)
		if err != nil {
			if frameReachesEOF(data, off) {
				// The writer died mid-append; the partial frame holds
				// nothing durable.
				st.Torn = true
				break
			}
			return nil, fmt.Errorf("wal: corrupt record mid-log at offset %d: %w", off, err)
		}
		frameOff := off
		off = next
		if r.Kind == KindGenesis && snap != nil && r.Seed != snap.Seed {
			// Checked on sight, covered or not: a genesis frame is only
			// ever under a snapshot in the rename-before-truncate
			// window, and there it must be this run's.
			return nil, fmt.Errorf("wal: snapshot seed %d disagrees with genesis seed %d", snap.Seed, r.Seed)
		}
		if r.Seq <= sinceSeq {
			// Covered by the snapshot — a crash landed between the
			// snapshot rename and the log truncate.
			continue
		}
		if r.Seq != st.LastSeq+1 {
			return nil, fmt.Errorf("wal: sequence gap at offset %d: record %d follows %d", frameOff, r.Seq, st.LastSeq)
		}
		if snap == nil && len(st.Tail) == 0 {
			if r.Kind != KindGenesis {
				return nil, fmt.Errorf("wal: log starts with %q, want genesis", r.Kind)
			}
			st.Seed = r.Seed
		}
		st.Tail = append(st.Tail, r)
		st.LastSeq = r.Seq
		st.Watermark = r.At
	}
	if snap == nil && len(st.Tail) == 0 {
		return nil, nil
	}
	return st.withSegment(dir)
}

// withSegment completes a loaded state: the snapshot's inputs come
// from the segment prefix it covers, with spare capacity for the
// tail's inputs (see Inputs).
func (st *State) withSegment(dir string) (*State, error) {
	if st.Snap == nil {
		return st, nil
	}
	spare := 0
	for i := range st.Tail {
		if st.Tail[i].IsInput() {
			spare++
		}
	}
	var err error
	if st.Snap.Inputs, err = readSegment(dir, st.Snap, spare); err != nil {
		return nil, err
	}
	return st, nil
}

// readSegment returns the inputs in the segment prefix snap covers —
// exactly snap.InputsLen intact input frames in exactly
// snap.InputsBytes bytes, with increasing Seq no newer than snap.Seq —
// in a slice with room for spare more.
func readSegment(dir string, snap *Snapshot, spare int) ([]Record, error) {
	corrupt := func(format string, args ...any) ([]Record, error) {
		return nil, fmt.Errorf("%w: %s", ErrCorruptSegment, fmt.Sprintf(format, args...))
	}
	if snap.InputsLen == 0 && snap.InputsBytes == 0 {
		return slices.Grow([]Record(nil), spare), nil
	}
	if snap.InputsLen < 0 || snap.InputsBytes < 0 {
		return corrupt("snapshot names a prefix of %d frames in %d bytes", snap.InputsLen, snap.InputsBytes)
	}
	f, err := os.Open(SegmentPath(dir))
	if err != nil {
		return corrupt("%v", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return corrupt("%v", err)
	}
	// Checked before reading so the prefix length, which comes from a
	// file, never sizes an allocation the segment cannot back.
	if fi.Size() < snap.InputsBytes || snap.InputsBytes/frameHeaderSize < int64(snap.InputsLen) {
		return corrupt("segment holds %d bytes, snapshot at seq %d covers %d frames in %d bytes",
			fi.Size(), snap.Seq, snap.InputsLen, snap.InputsBytes)
	}
	data := make([]byte, snap.InputsBytes)
	if _, err := io.ReadFull(f, data); err != nil {
		return corrupt("%v", err)
	}
	inputs := make([]Record, 0, snap.InputsLen+spare)
	off, last := 0, uint64(0)
	for i := 0; i < snap.InputsLen; i++ {
		r, next, err := decodeFrame(data, off)
		switch {
		case err != nil:
			return corrupt("frame %d at offset %d: %v", i, off, err)
		case !r.IsInput():
			return corrupt("frame %d at offset %d is a %q record, not an input", i, off, r.Kind)
		case r.Seq <= last || r.Seq > snap.Seq:
			return corrupt("frame %d at offset %d has seq %d after %d under a snapshot at seq %d", i, off, r.Seq, last, snap.Seq)
		}
		inputs = append(inputs, r)
		off, last = next, r.Seq
	}
	if off != len(data) {
		return corrupt("%d frames end at byte %d, snapshot covers %d", snap.InputsLen, off, len(data))
	}
	return inputs, nil
}

// frameReachesEOF reports whether the (possibly invalid) frame at off
// claims bytes up to or past the end of the file — the signature of a
// torn tail, as opposed to corruption with intact data after it.
func frameReachesEOF(data []byte, off int) bool {
	if len(data)-off < frameHeaderSize {
		return true
	}
	n := int(binary.LittleEndian.Uint32(data[off : off+4]))
	return off+frameHeaderSize+n >= len(data)
}
