package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"

	"lattice/internal/workload"
)

// State is everything Load could recover from a durable directory:
// every record since genesis, with the seed and the last sequence
// number read off it.
type State struct {
	// Tail holds every whole record of the log, genesis first,
	// contiguous and checksum-verified.
	Tail []Record
	// Torn reports that the final log frame was truncated mid-write
	// and dropped — expected after a crash, not an error.
	Torn bool
	// Seed is the run's seed, from the genesis record.
	Seed int64
	// LastSeq is the newest durable sequence number.
	LastSeq uint64
	// size is the byte length of the header and the whole frames: where
	// Reopen appends.
	size int64
}

// Load reads dir's log: every complete frame after the header. A torn
// final frame — truncated header, payload short of its declared
// length, or checksum/decode failure that runs into EOF — is dropped
// and flagged Torn; corruption followed by more data is fatal, because
// everything after an undecodable frame is unframed garbage. Load
// returns (nil, nil) when dir holds no whole frame: no log, or one
// whose writer died inside the header or the genesis frame.
func Load(dir string) (*State, error) {
	data, err := os.ReadFile(LogPath(dir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: reading log: %w", err)
	}
	if len(data) < len(magic) && bytes.HasPrefix(magic, data) {
		return nil, nil
	}
	if len(data) < len(magic) || !bytes.Equal(data[:len(magic)], magic) {
		return nil, fmt.Errorf("wal: log header is %q, this build reads only %q; a durable directory cannot move between format versions — remove it", data[:min(len(data), len(magic))], magic)
	}
	// Size Tail and the submission array by hopping the length fields
	// first: appending record by record would allocate several times the
	// history they hold. A frame that claims more than the bytes left is
	// the last; the decode pass judges it.
	n, subs := 0, 0
	for off := len(magic); len(data)-off >= frameHeaderSize; n++ {
		size, ok := frameLen(data, off)
		body := off + frameHeaderSize
		if !ok || size > len(data)-body {
			n++
			break
		}
		if carriesSub(data[body : body+size]) {
			subs++
		}
		off = body + size
	}
	st := &State{Tail: make([]Record, 0, n), size: int64(len(magic))}
	// The records' strings are cut from one slab and their submissions
	// from one array rather than allocated one by one, and the strings
	// rather than sliced from data, which would keep the whole log image
	// alive as long as any record.
	a := arena{subs: make([]workload.Submission, subs)}
	for off := len(magic); off < len(data); {
		r, next, err := decodeFrame(data, off, &a)
		if err != nil {
			if frameReachesEOF(data, off) {
				// The writer died mid-append; the partial frame holds
				// nothing durable.
				st.Torn = true
				break
			}
			return nil, fmt.Errorf("wal: corrupt record mid-log at offset %d: %w", off, err)
		}
		if r.Seq != st.LastSeq+1 {
			return nil, fmt.Errorf("wal: sequence gap at offset %d: record %d follows %d", off, r.Seq, st.LastSeq)
		}
		if r.Seq == 1 {
			if r.Kind != KindGenesis {
				return nil, fmt.Errorf("wal: log starts with %q, want genesis", r.Kind)
			}
			st.Seed = r.Seed
		}
		st.Tail = append(st.Tail, r)
		st.LastSeq = r.Seq
		off = next
		st.size = int64(off)
	}
	if len(st.Tail) == 0 {
		return nil, nil
	}
	return st, nil
}

// frameReachesEOF reports whether the (possibly invalid) frame at off
// claims bytes up to or past the end of the file — the signature of a
// torn tail, as opposed to corruption with intact data after it.
func frameReachesEOF(data []byte, off int) bool {
	if len(data)-off < frameHeaderSize {
		return true
	}
	n := binary.LittleEndian.Uint32(data[off:])
	return uint64(off)+frameHeaderSize+uint64(n) >= uint64(len(data))
}
