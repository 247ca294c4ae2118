package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"lattice/internal/obs"
	"lattice/internal/sim"
	"lattice/internal/wal"
)

// crashedRun drives the recovery scenario into its 4-hour kill and
// returns the abandoned durable directory with the config that wrote
// it.
func crashedRun(t *testing.T, seed int64, snapshotEvery int) (string, Config) {
	t.Helper()
	dir := t.TempDir() + "/wal"
	cfg := recoverConfig(seed)
	cfg.Faults = crashingSchedule(sim.Time(4 * sim.Hour))
	cfg.Durable = dir
	cfg.WAL.SnapshotEvery = snapshotEvery
	lat, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := lat.SubmitSubmission(recoverSubmission()); err != nil {
		t.Fatalf("submit: %v", err)
	}
	for !lat.Faults.Crashed() {
		pumpBoundary(lat)
	}
	if err := lat.DurableErr(); err != nil {
		t.Fatalf("wal error before crash: %v", err)
	}
	return dir, cfg
}

// editFrame applies edit to the payload of the first frame at or after
// byte offset start of the framed file at path whose payload contains
// marker, and re-checksums the frame — damage a CRC cannot see. Frames
// are uint32 LE length, uint32 LE CRC32, payload.
func editFrame(t *testing.T, path string, start int, marker string, edit func(payload []byte)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := start; off+8 <= len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		payload := data[off+8 : off+8+n]
		if bytes.Contains(payload, []byte(marker)) {
			edit(payload)
			binary.LittleEndian.PutUint32(data[off+4:], crc32.ChecksumIEEE(payload))
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		off += 8 + n
	}
	t.Fatalf("no frame in %s mentions %q", path, marker)
}

// divergedAt extracts N from a "diverged at record N" error.
func divergedAt(t *testing.T, err error) uint64 {
	t.Helper()
	if err == nil {
		t.Fatal("Recover succeeded over a history it cannot regenerate")
	}
	m := regexp.MustCompile(`recovery diverged at record (\d+): regenerated (\{.*\}), log holds (\{.*\})`).FindStringSubmatch(err.Error())
	if m == nil {
		t.Fatalf("error does not name the diverging record and show both sides: %v", err)
	}
	if m[2] == m[3] {
		t.Fatalf("both sides render alike: %v", err)
	}
	n, perr := strconv.ParseUint(m[1], 10, 64)
	if perr != nil {
		t.Fatal(perr)
	}
	return n
}

// TestRecoverTailFieldDivergence: one field of one tail record changed
// behind a valid checksum is caught at that record, both sides shown.
func TestRecoverTailFieldDivergence(t *testing.T) {
	dir, cfg := crashedRun(t, 11, 0)
	editFrame(t, wal.LogPath(dir), len("LATWAL02"), "umd-condor", func(p []byte) {
		i := bytes.Index(p, []byte("umd-condor"))
		p[i+len("umd-condo")] = 's'
	})
	_, err := Recover(dir, cfg)
	divergedAt(t, err)
	if !strings.Contains(err.Error(), `"umd-condos"`) || !strings.Contains(err.Error(), `"umd-condor"`) {
		t.Fatalf("error does not show the field that differs: %v", err)
	}
}

// TestRecoverInputSeqDivergence: an input in the segment that claims
// the wrong position is caught when that input is regenerated — the
// rebuild does not run on to the snapshot with a mis-placed input.
func TestRecoverInputSeqDivergence(t *testing.T) {
	dir, cfg := crashedRun(t, 11, 200)
	st, err := wal.Load(dir)
	if err != nil || st.Snap == nil || len(st.Snap.Inputs) == 0 {
		t.Fatalf("fixture has no input under a snapshot: %+v, %v", st, err)
	}
	seq := st.Snap.Inputs[0].Seq
	if seq >= 0x7f {
		t.Fatalf("first input has seq %d; the one-byte edit below needs a small one", seq)
	}
	editFrame(t, wal.SegmentPath(dir), 0, "recover@example.edu", func(p []byte) {
		p[1]++ // kind byte, then Seq as a varint
	})
	_, err = Recover(dir, cfg)
	if got := divergedAt(t, err); got != seq {
		t.Fatalf("diverged at record %d, want the input at %d: %v", got, seq, err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf(`log holds {"seq":%d,`, seq+1)) {
		t.Fatalf("error does not show the shifted input: %v", err)
	}
}

// TestRecoverConfigDriftStopsEarly: rebuilding on a federation one
// cluster short fails at the first record that differs, not after
// regenerating the whole history.
func TestRecoverConfigDriftStopsEarly(t *testing.T) {
	dir, cfg := crashedRun(t, 11, 0)
	st, err := wal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	drifted := cfg
	drifted.Resources = nil
	for _, rs := range cfg.Resources {
		if rs.Name != "bigmem-cluster" {
			drifted.Resources = append(drifted.Resources, rs)
		}
	}
	sch := *cfg.Faults // the schedule may only name resources that exist
	sch.Events = nil
	for _, ev := range cfg.Faults.Events {
		if ev.Resource != "bigmem-cluster" {
			sch.Events = append(sch.Events, ev)
		}
	}
	drifted.Faults = &sch
	_, err = Recover(dir, drifted)
	if at := divergedAt(t, err); at > st.LastSeq/2 {
		t.Fatalf("diverged at record %d of %d: %v", at, st.LastSeq, err)
	}
}

// TestRebuildEmitRetainsNothing: checking a regenerated stage record
// against the log tail allocates nothing — the recorder keeps no copy
// of the stream it verifies — and still sees a record that differs.
func TestRebuildEmitRetainsNothing(t *testing.T) {
	eng := sim.NewEngine()
	const n = 300
	events := make([]obs.Event, n)
	tail := make([]wal.Record, n)
	for i := range events {
		ev := obs.Event{At: sim.Time(i), Batch: "batch-000001", Job: fmt.Sprintf("batch-000001-r%04d", i), Stage: obs.StageDispatch, Resource: "umd-hpc"}
		events[i] = ev
		tail[i] = wal.Record{Seq: uint64(i + 1), At: ev.At, Kind: wal.KindStage, Batch: ev.Batch, Job: ev.Job, Stage: string(ev.Stage), Resource: ev.Resource}
	}
	tail[n-1].Detail = "only the log says this"
	rec := newRecorder(eng, 1, &rebuild{tail: tail, lastSeq: n})
	i := 0
	if allocs := testing.AllocsPerRun(n-100, func() {
		rec.Stage(events[i])
		i++
	}); allocs != 0 {
		t.Errorf("emit in rebuild mode allocates %v times per stage record", allocs)
	}
	if err := rec.diverged(); err != nil || rec.count != uint64(i) {
		t.Fatalf("after %d matching records (count %d): %v", i, rec.count, err)
	}
	for ; i < n; i++ {
		rec.Stage(events[i])
	}
	if err := rec.diverged(); err == nil || divergedAt(t, err) != n {
		t.Fatalf("the differing record %d went unnoticed: %v", n, err)
	}
}
