package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"lattice/internal/sim"
	"lattice/internal/workload"
)

// appendN writes a genesis record plus n-1 synthetic records to a
// fresh log in dir and closes it.
func appendN(t testing.TB, dir string, n int, opts Options) {
	t.Helper()
	lg, err := Create(dir, opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for _, r := range makeRecords(n) {
		lg.Append(r)
	}
	if err := lg.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// recordJSON renders a record for a failure message.
func recordJSON(t testing.TB, r Record) string {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// mustLoad loads dir, failing the test on error or empty state.
func mustLoad(t testing.TB, dir string) *State {
	t.Helper()
	st, err := Load(dir)
	if err != nil || st == nil {
		t.Fatalf("Load: %v, %v", st, err)
	}
	return st
}

// seqs lists the sequence numbers of recs.
func seqs(recs []Record) []uint64 {
	out := make([]uint64, len(recs))
	for i, r := range recs {
		out[i] = r.Seq
	}
	return out
}

// makeRecords builds a deterministic mixed-kind record stream of
// length n starting with genesis.
func makeRecords(n int) []Record {
	recs := []Record{{Seq: 1, Kind: KindGenesis, Seed: 42}}
	for i := 2; i <= n; i++ {
		at := sim.Time(float64(i) * 1.5)
		var r Record
		switch i % 4 {
		case 0:
			r = Record{Seq: uint64(i), At: at, Kind: KindStage,
				Batch: "batch-000001", Job: fmt.Sprintf("j-%04d", i),
				Stage: "dispatch", Resource: "cluster-a", Detail: "ok"}
		case 2:
			r = Record{Seq: uint64(i), At: at, Kind: KindSubmission,
				Origin: "service", Sub: &workload.Submission{Replicates: i, UserEmail: "w@example.edu"}}
		default:
			r = Record{Seq: uint64(i), At: at, Kind: KindCheckpoint,
				JournalLen: 64 * i, JournalDigest: fmt.Sprintf("%064x", i)}
		}
		recs = append(recs, r)
	}
	return recs
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	appendN(t, dir, 9, Options{})
	st, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if st == nil {
		t.Fatal("Load found no state")
	}
	if st.Seed != 42 || st.LastSeq != 9 || st.Torn {
		t.Fatalf("seed=%d lastSeq=%d torn=%v", st.Seed, st.LastSeq, st.Torn)
	}
	want := makeRecords(9)
	if len(st.Tail) != len(want) {
		t.Fatalf("tail length %d, want %d", len(st.Tail), len(want))
	}
	for i, r := range st.Tail {
		if !reflect.DeepEqual(r, want[i]) {
			t.Errorf("record %d: got %s want %s", i, recordJSON(t, r), recordJSON(t, want[i]))
		}
	}
}

func TestHasState(t *testing.T) {
	dir := t.TempDir()
	if HasState(dir) {
		t.Fatal("empty dir reports state")
	}
	lg, err := Create(dir, Options{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if HasState(dir) {
		t.Fatal("header-only log reports state")
	}
	lg.Append(Record{Seq: 1, Kind: KindGenesis, Seed: 1})
	if err := lg.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !HasState(dir) {
		t.Fatal("log with a record reports no state")
	}
	if _, err := Create(dir, Options{}); err == nil {
		t.Fatal("Create over existing state succeeded")
	}
	// A writer killed inside the genesis frame left nothing durable:
	// no state, and Create starts over it.
	data, err := os.ReadFile(LogPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(LogPath(dir), data[:len(magic)+3], 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err := Load(dir); HasState(dir) || st != nil || err != nil {
		t.Fatalf("torn genesis: HasState %v, Load %+v, %v; want no state", HasState(dir), st, err)
	}
	if lg, err = Create(dir, Options{}); err != nil {
		t.Fatalf("Create over a torn genesis: %v", err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	// A directory of another format is state: Create leaves it alone.
	if err := os.WriteFile(LogPath(dir), []byte("LATWAL04"), 0o644); err != nil {
		t.Fatal(err)
	}
	if !HasState(dir) {
		t.Fatal("an older format's log reports no state")
	}
}

// TestTornTailEveryOffset is the torn-tail guarantee: truncating the
// log at every byte offset must yield a clean load of every whole
// frame before the cut, flagged Torn when the cut is inside a frame —
// never an error, never a short read of earlier records — and Reopen
// must cut the torn bytes off, so that appending the rest of the
// stream and loading again gives the whole stream, dense and intact.
// Before the first whole frame there is no state, and Create starts
// over.
func TestTornTailEveryOffset(t *testing.T) {
	src := t.TempDir()
	const n = 5
	appendN(t, src, n, Options{})
	data, err := os.ReadFile(LogPath(src))
	if err != nil {
		t.Fatalf("reading log: %v", err)
	}
	ends := []int{len(magic)} // ends[i] is where frame i+1 ends
	for i := 0; i < n; i++ {
		_, next, err := decodeFrame(data, ends[i])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		ends = append(ends, next)
	}
	recs := makeRecords(n)
	for cut := 0; cut <= len(data); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(LogPath(dir), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Load(dir)
		if err != nil {
			t.Fatalf("cut at %d: Load: %v", cut, err)
		}
		whole := 0
		for whole < n && ends[whole+1] <= cut {
			whole++
		}
		var lg *Log
		if whole == 0 {
			if st != nil {
				t.Fatalf("cut at %d: no whole frame, Load returned %+v", cut, st)
			}
			if lg, err = Create(dir, Options{}); err != nil {
				t.Fatalf("cut at %d: Create: %v", cut, err)
			}
		} else {
			if wantTorn := cut != ends[whole]; st.Torn != wantTorn {
				t.Errorf("cut at %d: torn=%v, want %v", cut, st.Torn, wantTorn)
			}
			if !reflect.DeepEqual(st.Tail, recs[:whole]) || st.LastSeq != uint64(whole) {
				t.Fatalf("cut at %d: records %v (lastSeq %d), want 1-%d", cut, seqs(st.Tail), st.LastSeq, whole)
			}
			if lg, err = Reopen(dir, st, Options{}); err != nil {
				t.Fatalf("cut at %d: Reopen: %v", cut, err)
			}
		}
		for _, r := range recs[whole:] {
			lg.Append(r)
		}
		if err := lg.Close(); err != nil {
			t.Fatalf("cut at %d: Close: %v", cut, err)
		}
		if got := mustLoad(t, dir); !reflect.DeepEqual(got.Tail, recs) || got.LastSeq != n || got.Torn {
			t.Fatalf("cut at %d, reopened and appended to: records %v (lastSeq %d, torn %v), want 1-%d",
				cut, seqs(got.Tail), got.LastSeq, got.Torn, n)
		}
	}
}

// TestCorruptMidLogFatal pins the other half of the torn-tail rule: a
// bad record with intact data after it is corruption, not a crash
// artifact, and must refuse to load.
func TestCorruptMidLogFatal(t *testing.T) {
	dir := t.TempDir()
	appendN(t, dir, 5, Options{})
	data, err := os.ReadFile(LogPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the first frame (genesis), leaving the
	// rest of the log intact.
	data[len(magic)+frameHeaderSize+2] ^= 0xff
	if err := os.WriteFile(LogPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(dir)
	if err == nil || !strings.Contains(err.Error(), "corrupt record mid-log") {
		t.Fatalf("got %v, want corrupt-record-mid-log error", err)
	}
}

// TestSequenceGapFatal pins both the fatality and the exact message of
// a mid-log sequence gap: the error names the byte offset of the
// offending frame so an operator can go straight to it with a hex
// editor instead of rescanning the whole log.
func TestSequenceGapFatal(t *testing.T) {
	dir := t.TempDir()
	lg, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lg.Append(Record{Seq: 1, Kind: KindGenesis, Seed: 7})
	lg.Append(Record{Seq: 3, Kind: KindCheckpoint, JournalLen: 64, JournalDigest: strings.Repeat("0", 64)})
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	// The offending frame is the second one; its offset is wherever
	// decoding the genesis frame ends.
	data, err := os.ReadFile(LogPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	_, gapOff, err := decodeFrame(data, len(magic))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Load(dir)
	if err == nil {
		t.Fatal("Load accepted a log with a sequence gap")
	}
	want := fmt.Sprintf("wal: sequence gap at offset %d: record 3 follows 1", gapOff)
	if err.Error() != want {
		t.Fatalf("got %q, want %q", err, want)
	}
}

// TestOlderFormatRefused: a directory written by an older build — the
// JSON-frame one, the binary one whose records had no due time, the
// one that logged every journal event and learned estimate beside the
// inputs, or the one with a snapshot and an input segment beside the
// log — fails to load with an error naming both versions.
func TestOlderFormatRefused(t *testing.T) {
	for _, old := range []string{"LATWAL01", "LATWAL02", "LATWAL03", "LATWAL04"} {
		dir := t.TempDir()
		if err := os.WriteFile(LogPath(dir), []byte(old+"\x10\x00\x00\x00"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(dir)
		if err == nil || !strings.Contains(err.Error(), old) || !strings.Contains(err.Error(), "LATWAL05") {
			t.Fatalf("got %v, want an error naming %s and LATWAL05", err, old)
		}
	}
}

func TestStickyError(t *testing.T) {
	dir := t.TempDir()
	lg, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lg.Append(Record{Seq: 1, Kind: KindGenesis, Seed: 1})
	if err := lg.f.Close(); err != nil { // yank the file out from under the log
		t.Fatal(err)
	}
	lg.Append(Record{Seq: 2, At: 1, Kind: KindCheckpoint, JournalLen: 64})
	if lg.Err() == nil {
		t.Fatal("write to closed file did not stick")
	}
	lg.f = nil // already closed
	if lg.Close() == nil {
		t.Fatal("Close lost the sticky error")
	}
}
