package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
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

// appendRotating writes recs to a fresh log in dir that snapshots
// every `every` records from a source tracking the last Seq appended,
// and closes it.
func appendRotating(t testing.TB, dir string, recs []Record, every int) {
	t.Helper()
	lg, err := Create(dir, Options{SnapshotEvery: every})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	var last Record
	lg.SetSnapshotSource(func() Snapshot { return Snapshot{Seq: last.Seq, At: last.At, Seed: 42} })
	for _, r := range recs {
		last = r
		lg.Append(r)
	}
	if err := lg.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
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

// copyFile copies one file of a durable directory into another.
func copyFile(t testing.TB, dst, src string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
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
	if st == nil || st.Snap != nil {
		t.Fatalf("want snapshot-less state, got %+v", st)
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
	inputs := st.Inputs()
	for _, r := range inputs {
		if !r.IsInput() {
			t.Errorf("Inputs returned non-input record %+v", r)
		}
	}
	if len(inputs) != 2 { // seqs 2 and 6 are submissions
		t.Errorf("got %d inputs, want 2", len(inputs))
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
}

// TestTornTailEveryOffset is the satellite-2 guarantee: truncating the
// log at every byte offset inside the final record must yield a clean
// load of everything before it, flagged Torn — never an error, never
// a short read of earlier records.
func TestTornTailEveryOffset(t *testing.T) {
	src := t.TempDir()
	const n = 5
	appendN(t, src, n, Options{})
	data, err := os.ReadFile(LogPath(src))
	if err != nil {
		t.Fatalf("reading log: %v", err)
	}
	// Locate the final frame by walking the first n-1.
	off := len(magic)
	for i := 0; i < n-1; i++ {
		_, next, err := decodeFrame(data, off)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		off = next
	}
	for cut := off; cut <= len(data); cut++ {
		dir := t.TempDir()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(LogPath(dir), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Load(dir)
		if err != nil {
			t.Fatalf("cut at %d: Load: %v", cut, err)
		}
		wantTorn := cut != off && cut != len(data)
		if st.Torn != wantTorn {
			t.Errorf("cut at %d: torn=%v, want %v", cut, st.Torn, wantTorn)
		}
		wantTail := n - 1
		if cut == len(data) {
			wantTail = n
		}
		if len(st.Tail) != wantTail || st.LastSeq != uint64(wantTail) {
			t.Errorf("cut at %d: %d records (lastSeq %d), want %d",
				cut, len(st.Tail), st.LastSeq, wantTail)
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

// TestSegmentTruncatedEveryOffset extends the torn-tail guarantee to
// the input segment: bytes past the prefix the snapshot covers are the
// crash window and change nothing, while the prefix itself was
// fsynced before the snapshot was published — losing any byte of it
// is corruption, reported as such and never as a shorter history.
func TestSegmentTruncatedEveryOffset(t *testing.T) {
	src := t.TempDir()
	appendRotating(t, src, makeRecords(14), 4) // snapshot at 12; inputs 2, 6, 10 under it, 14 past it
	want := mustLoad(t, src)
	if want.Snap == nil || want.Snap.Seq != 12 || !reflect.DeepEqual(seqs(want.Inputs()), []uint64{2, 6, 10, 14}) {
		t.Fatalf("fixture: snapshot %+v, inputs %v", want.Snap, seqs(want.Inputs()))
	}
	seg, err := os.ReadFile(SegmentPath(src))
	if err != nil {
		t.Fatal(err)
	}
	prefix := int(want.Snap.InputsBytes)
	if prefix <= 0 || prefix >= len(seg) {
		t.Fatalf("fixture: prefix %d of a %d-byte segment", prefix, len(seg))
	}
	dir := t.TempDir()
	copyFile(t, LogPath(dir), LogPath(src))
	copyFile(t, SnapshotPath(dir), SnapshotPath(src))
	for cut := 0; cut <= len(seg); cut++ {
		if err := os.WriteFile(SegmentPath(dir), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Load(dir)
		if cut < prefix {
			if !errors.Is(err, ErrCorruptSegment) {
				t.Fatalf("cut at %d of a %d-byte prefix: got %v, %v; want ErrCorruptSegment", cut, prefix, got, err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d (prefix %d): state changed: %+v, %v", cut, prefix, got, err)
		}
	}
	if err := os.Remove(SegmentPath(dir)); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("missing segment: got %v, want ErrCorruptSegment", err)
	}
}

// TestSegmentPrefixChecked: an intact-looking prefix that is not the
// input history — a flipped byte, a non-input frame, a sequence number
// out of order or newer than the snapshot, a frame too few — is
// corruption too.
func TestSegmentPrefixChecked(t *testing.T) {
	src := t.TempDir()
	appendRotating(t, src, makeRecords(12), 4)
	snap := *mustLoad(t, src).Snap
	frames := func(recs ...Record) []byte {
		var out []byte
		for i := range recs {
			out = appendFrame(out, &recs[i])
		}
		return out
	}
	in := snap.Inputs
	stage := Record{Seq: 7, At: 1, Kind: KindStage}
	newer := in[2]
	newer.Seq = snap.Seq + 1
	flipped := frames(in...)
	flipped[len(flipped)/2] ^= 0x01
	cases := map[string][]byte{
		"flipped byte":      flipped,
		"non-input frame":   frames(in[0], stage, in[2]),
		"seq out of order":  frames(in[1], in[0], in[2]),
		"seq past snapshot": frames(in[0], in[1], newer),
		"one frame short":   append(frames(in[0], in[1]), make([]byte, len(frames(in[2])))...),
	}
	for name, seg := range cases {
		dir := t.TempDir()
		copyFile(t, LogPath(dir), LogPath(src))
		if err := os.WriteFile(SegmentPath(dir), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		s := snap
		s.InputsBytes = int64(len(seg))
		if err := writeSnapshot(dir, s); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir); !errors.Is(err, ErrCorruptSegment) {
			t.Errorf("%s: got %v, want ErrCorruptSegment", name, err)
		}
	}
}

// TestAutoSnapshot drives the record-count snapshot trigger and pins
// the linear-cost property: the snapshot file stays a few hundred
// bytes however many inputs the run has taken, and each rotation
// extends the covered segment prefix by exactly the input frames
// appended since the previous one. Load stitches snapshot, segment
// prefix and tail back together.
func TestAutoSnapshot(t *testing.T) {
	const inputs, every = 10000, 1500
	dir := t.TempDir()
	lg, err := Create(dir, Options{SnapshotEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	var last Record
	lg.SetSnapshotSource(func() Snapshot {
		return Snapshot{Seq: last.Seq, At: last.At, Seed: 42, JournalLen: int(last.Seq), JournalDigest: strings.Repeat("f", 64),
			Users: map[string]string{"tok": "u@example.edu"}}
	})
	var sinceRotation, covered int64
	rotations := 0
	appendOne := func(r Record) {
		r.Seq = last.Seq + 1
		last = r
		if r.IsInput() {
			sinceRotation += int64(len(appendFrame(nil, &r)))
		}
		lg.Append(r)
		if lg.sinceSnap != 0 {
			return
		}
		rotations++
		snap, err := readSnapshot(dir)
		if err != nil || snap == nil {
			t.Fatalf("rotation %d: %v, %v", rotations, snap, err)
		}
		if snap.InputsBytes-covered != sinceRotation {
			t.Fatalf("rotation %d at seq %d: prefix grew %d bytes, inputs appended since the last one frame to %d",
				rotations, r.Seq, snap.InputsBytes-covered, sinceRotation)
		}
		if fi, err := os.Stat(SegmentPath(dir)); err != nil || fi.Size() != snap.InputsBytes {
			t.Fatalf("rotation %d: segment is %v bytes (%v), snapshot covers %d", rotations, fi.Size(), err, snap.InputsBytes)
		}
		if fi, err := os.Stat(LogPath(dir)); err != nil || fi.Size() != int64(len(magic)) {
			t.Fatalf("rotation %d: log not truncated to its header: %v bytes (%v)", rotations, fi.Size(), err)
		}
		covered, sinceRotation = snap.InputsBytes, 0
	}
	appendOne(Record{Kind: KindGenesis, Seed: 42})
	for i := 0; i < inputs; i++ {
		at := sim.Time(float64(i) * 0.5)
		appendOne(Record{At: at, Kind: KindSubmission, Origin: "service", Queued: i%2 == 0,
			Sub: &workload.Submission{Replicates: 1 + i%2000, UserEmail: fmt.Sprintf("u%05d@example.edu", i)}})
		appendOne(Record{At: at, Kind: KindCheckpoint, JournalLen: 64 * i, JournalDigest: fmt.Sprintf("%064x", i)})
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if want := (2*inputs + 1) / every; rotations != want {
		t.Fatalf("%d rotations, want %d", rotations, want)
	}
	fi, err := os.Stat(SnapshotPath(dir))
	if err != nil || fi.Size() >= 1024 {
		t.Fatalf("snapshot.json is %d bytes after %d inputs (%v); want < 1 KiB", fi.Size(), inputs, err)
	}
	st := mustLoad(t, dir)
	wantSeq := uint64(rotations * every)
	if st.Snap.Seq != wantSeq || st.LastSeq != last.Seq || len(st.Tail) != int(last.Seq-wantSeq) || st.Tail[0].Seq != wantSeq+1 {
		t.Fatalf("snapshot at %d, %d tail records up to %d; want snapshot at %d, tail up to %d",
			st.Snap.Seq, len(st.Tail), st.LastSeq, wantSeq, last.Seq)
	}
	if st.Seed != 42 || st.Snap.Users["tok"] != "u@example.edu" || st.Snap.JournalDigest != strings.Repeat("f", 64) {
		t.Fatalf("seed %d, snapshot %+v", st.Seed, st.Snap)
	}
	all := st.Inputs()
	if len(all) != inputs || len(st.Snap.Inputs) != st.Snap.InputsLen {
		t.Fatalf("%d inputs (%d of %d under the snapshot), want %d", len(all), len(st.Snap.Inputs), st.Snap.InputsLen, inputs)
	}
	for i, r := range all {
		if r.Seq != uint64(2*i+2) || r.Sub.UserEmail != fmt.Sprintf("u%05d@example.edu", i) || r.Queued != (i%2 == 0) {
			t.Fatalf("input %d came back as %s", i, recordJSON(t, r))
		}
	}
}

// TestSnapshotCrashWindow kills the writer at the two points inside a
// rotation. Before the snapshot rename the directory holds the new
// segment bytes under the old snapshot; after it, the new snapshot
// over a log whose frames it already covers. Both must load to the
// input history and frontier of the rotation that completed.
func TestSnapshotCrashWindow(t *testing.T) {
	recs := makeRecords(12)
	done := t.TempDir()
	appendRotating(t, done, recs, 4) // third rotation at seq 12 completes
	want := mustLoad(t, done)
	if want.Snap.Seq != 12 || len(want.Tail) != 0 || !reflect.DeepEqual(seqs(want.Inputs()), []uint64{2, 6, 10}) {
		t.Fatalf("fixture: snapshot at %d, tail %v, inputs %v", want.Snap.Seq, seqs(want.Tail), seqs(want.Inputs()))
	}

	// Killed after the segment fsync, before the rename: snapshot at 8,
	// log holding 9-12, segment already holding input 10.
	before := t.TempDir()
	appendRotating(t, before, recs[:11], 4)
	f, err := os.OpenFile(LogPath(before), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(appendFrame(nil, &recs[11])); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got := mustLoad(t, before)
	if got.Snap.Seq != 8 || !reflect.DeepEqual(seqs(got.Tail), []uint64{9, 10, 11, 12}) {
		t.Fatalf("before rename: snapshot at %d, tail %v", got.Snap.Seq, seqs(got.Tail))
	}
	if !reflect.DeepEqual(got.Inputs(), want.Inputs()) || got.LastSeq != want.LastSeq || got.Watermark != want.Watermark || got.Torn {
		t.Fatalf("before rename: inputs %v up to seq %d (torn %v), want %v up to %d",
			seqs(got.Inputs()), got.LastSeq, got.Torn, seqs(want.Inputs()), want.LastSeq)
	}

	// Killed after the rename, before the truncate: the new snapshot
	// and segment over the log that still holds 9-12.
	after := t.TempDir()
	copyFile(t, SnapshotPath(after), SnapshotPath(done))
	copyFile(t, SegmentPath(after), SegmentPath(done))
	copyFile(t, LogPath(after), LogPath(before))
	if got := mustLoad(t, after); !reflect.DeepEqual(got, want) {
		t.Fatalf("after rename: %+v, want %+v", got, want)
	}
}

// TestSplicedSnapshotRefused is the check the old seed guard never
// made: in the rename-before-truncate window the genesis frame sits
// under the snapshot, and a snapshot from another run (seed 42) over
// this run's log (seed 7) must not load.
func TestSplicedSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	lg, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range makeRecords(6) {
		if r.Kind == KindGenesis {
			r.Seed = 7
		}
		lg.Append(r)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(dir, Snapshot{Seq: 4, At: 6, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	_, err = Load(dir)
	if err == nil || !strings.Contains(err.Error(), "snapshot seed 42 disagrees with genesis seed 7") {
		t.Fatalf("got %v, want the seed disagreement", err)
	}
}

// TestOlderFormatRefused: a directory written by an older build — the
// JSON-frame one, the binary one whose records had no due time, or the
// one that logged every journal event and learned estimate beside the
// inputs — fails to load with an error naming both versions.
func TestOlderFormatRefused(t *testing.T) {
	for _, old := range []string{"LATWAL01", "LATWAL02", "LATWAL03"} {
		dir := t.TempDir()
		if err := os.WriteFile(LogPath(dir), []byte(old+"\x10\x00\x00\x00"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(dir)
		if err == nil || !strings.Contains(err.Error(), old) || !strings.Contains(err.Error(), "LATWAL04") {
			t.Fatalf("got %v, want an error naming %s and LATWAL04", err, old)
		}
	}
}

// TestResetReplacesState: Reset publishes the snapshot, an empty log
// and a segment rebuilt from the snapshot's in-memory input history —
// whatever a dead run left in the old one — and the returned log
// extends that segment.
func TestResetReplacesState(t *testing.T) {
	dir := t.TempDir()
	appendRotating(t, dir, makeRecords(15), 4) // segment now holds inputs 2, 6, 10, 14
	history := mustLoad(t, dir).Inputs()[:3]   // recovery verified up to seq 12, say
	snap := Snapshot{Seq: 12, At: 18, Seed: 42, Users: map[string]string{"a": "a@example.edu"}, Inputs: history}
	lg, err := Reset(dir, snap, Options{})
	if err != nil {
		t.Fatalf("Reset: %v", err)
	}
	var want []byte
	for i := range history {
		want = appendFrame(want, &history[i])
	}
	if got, err := os.ReadFile(SegmentPath(dir)); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("republished segment is %d bytes (%v), want the %d bytes of inputs 2, 6, 10", len(got), err, len(want))
	}
	lg.Append(Record{Seq: 13, At: 19, Kind: KindCheckpoint, JournalLen: 640, JournalDigest: strings.Repeat("a", 64)})
	next := Record{Seq: 14, At: 20, Kind: KindUser, Token: "tok", Email: "n@example.edu"}
	lg.Append(next)
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(SegmentPath(dir)); err != nil || !bytes.Equal(got, appendFrame(want, &next)) {
		t.Fatalf("segment after the reset log took an input: %d bytes (%v)", len(got), err)
	}
	st := mustLoad(t, dir)
	if st.Snap.Seq != 12 || st.Snap.Users["a"] != "a@example.edu" || st.Snap.InputsLen != 3 || st.Snap.InputsBytes != int64(len(want)) {
		t.Fatalf("snapshot %+v, want seq 12 over 3 inputs, accounts preserved", st.Snap)
	}
	if !reflect.DeepEqual(st.Snap.Inputs, history) {
		t.Fatalf("snapshot inputs %v, want %v", seqs(st.Snap.Inputs), seqs(history))
	}
	if !reflect.DeepEqual(seqs(st.Tail), []uint64{13, 14}) || !reflect.DeepEqual(seqs(st.Inputs()), []uint64{2, 6, 10, 14}) {
		t.Fatalf("tail %v, inputs %v", seqs(st.Tail), seqs(st.Inputs()))
	}
}

// TestResetKeepsSegmentPrefix: given the prefix the loaded snapshot
// names, Reset leaves those bytes where they are, cuts whatever a dead
// run left after them, and appends only the newer inputs — the segment
// ends byte-equal to one rebuilt from scratch.
func TestResetKeepsSegmentPrefix(t *testing.T) {
	dir := t.TempDir()
	appendRotating(t, dir, makeRecords(15), 4) // snapshot at seq 12 over inputs 2, 6, 10; input 14 in the tail
	st := mustLoad(t, dir)
	history := st.Inputs()
	if st.Snap.InputsLen != 3 || !reflect.DeepEqual(seqs(history), []uint64{2, 6, 10, 14}) {
		t.Fatalf("fixture: snapshot over %d inputs, history %v", st.Snap.InputsLen, seqs(history))
	}
	// A dead run's torn frame past the prefix.
	if err := os.Truncate(SegmentPath(dir), st.Snap.InputsBytes+5); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(SegmentPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	snap := Snapshot{Seq: 15, At: 22, Seed: 42, Inputs: history, InputsLen: st.Snap.InputsLen, InputsBytes: st.Snap.InputsBytes}
	lg, err := Reset(dir, snap, Options{})
	if err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := range history {
		want = appendFrame(want, &history[i])
	}
	after, err := os.Stat(SegmentPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(SegmentPath(dir)); err != nil || !bytes.Equal(got, want) || !os.SameFile(before, after) {
		t.Fatalf("segment is %d bytes (%v, same file %v), want the %d bytes of inputs 2, 6, 10, 14 in place",
			len(got), err, os.SameFile(before, after), len(want))
	}
	got := mustLoad(t, dir)
	if got.Snap.InputsLen != 4 || got.Snap.InputsBytes != int64(len(want)) || !reflect.DeepEqual(got.Inputs(), history) {
		t.Fatalf("reloaded snapshot over %d inputs in %d bytes, history %v", got.Snap.InputsLen, got.Snap.InputsBytes, seqs(got.Inputs()))
	}
}

func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact.zip")
	if err := WriteFileAtomic(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "v2" {
		t.Fatalf("read %q, %v; want v2", got, err)
	}
}

// failingReader errors after yielding a prefix — the interrupted
// writer of the satellite-1 test.
type failingReader struct{ left int }

func (f *failingReader) Read(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, errors.New("interrupted")
	}
	n := len(p)
	if n > f.left {
		n = f.left
	}
	for i := 0; i < n; i++ {
		p[i] = 'x'
	}
	f.left -= n
	return n, nil
}

// TestCopyFileAtomicInterrupted: a write that dies partway must leave
// the previous artifact byte-for-byte intact and no temp litter.
func TestCopyFileAtomicInterrupted(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.zip")
	if err := WriteFileAtomic(path, []byte("the old archive")); err != nil {
		t.Fatal(err)
	}
	err := CopyFileAtomic(path, io.MultiReader(&failingReader{left: 7}))
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("got %v, want interrupted write error", err)
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil || string(got) != "the old archive" {
		t.Fatalf("old artifact damaged: %q, %v", got, rerr)
	}
	entries, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(entries) != 1 {
		t.Fatalf("temp litter left behind: %v", entries)
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

// TestStickySegmentError: the input segment failing is as sticky as
// the log failing — the log never runs ahead of the segment it relies
// on at the next snapshot.
func TestStickySegmentError(t *testing.T) {
	dir := t.TempDir()
	lg, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lg.Append(Record{Seq: 1, Kind: KindGenesis, Seed: 1})
	lg.Append(Record{Seq: 2, At: 1, Kind: KindUser, Token: "s", Email: "d@example.edu"})
	if err := lg.seg.Close(); err != nil { // yank the segment out from under the log
		t.Fatal(err)
	}
	lg.Append(Record{Seq: 3, At: 1, Kind: KindCheckpoint, JournalLen: 64})
	if err := lg.Err(); err != nil {
		t.Fatalf("a checkpoint touched the segment: %v", err)
	}
	lg.Append(Record{Seq: 4, At: 2, Kind: KindUser, Token: "t", Email: "e@example.edu"})
	if err := lg.Err(); err == nil || !strings.Contains(err.Error(), "segment") {
		t.Fatalf("got %v, want a sticky segment error", err)
	}
	size := func() int64 {
		fi, err := os.Stat(LogPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before := size()
	lg.Append(Record{Seq: 5, At: 3, Kind: KindCheckpoint, JournalLen: 128})
	if size() != before {
		t.Fatal("Append wrote after the error stuck")
	}
	if err := lg.Close(); err == nil || !strings.Contains(err.Error(), "segment") {
		t.Fatalf("Close returned %v, want the first error", err)
	}
}
