package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
func crashedRun(t *testing.T, seed int64) (string, Config) {
	t.Helper()
	dir := t.TempDir() + "/wal"
	cfg := recoverConfig(seed)
	cfg.Faults = crashingSchedule(sim.Time(4 * sim.Hour))
	cfg.Durable = dir
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

// divergedAt extracts N from a "diverged at record N" error — which
// may name the journal events a diverging checkpoint covers before the
// colon.
func divergedAt(t *testing.T, err error) uint64 {
	t.Helper()
	if err == nil {
		t.Fatal("resume succeeded over a history it cannot regenerate")
	}
	m := regexp.MustCompile(`recovery diverged at record (\d+)(?:, [^:]*)?: regenerated (\{.*\}), log holds (\{.*\})`).FindStringSubmatch(err.Error())
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

// logHeader is the length of the log's format header, where its first
// frame starts.
const logHeader = len("LATWAL06")

// TestRecoverCheckpointDigestDivergence: one byte of one checkpoint's
// journal digest changed behind a valid checksum is caught at that
// record, named with the journal events it covers, both digests shown.
func TestRecoverCheckpointDigestDivergence(t *testing.T) {
	dir, cfg := crashedRun(t, 11)
	st, err := wal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	from := 0 // journal length at the checkpoint before the target
	var target wal.Record
	for _, r := range st.Tail {
		if r.Kind != wal.KindCheckpoint {
			continue
		}
		if r.JournalLen > 3*checkpointEvery {
			target = r
			break
		}
		from = r.JournalLen
	}
	if target.Seq == 0 {
		t.Fatalf("the log holds no checkpoint past journal event %d", 3*checkpointEvery)
	}
	flipped := []byte(target.JournalDigest)
	flipped[len(flipped)-1] ^= 0x01 // '0'↔'1', 'a'↔'`': a byte a CRC re-check cannot see
	editFrame(t, wal.LogPath(dir), logHeader, target.JournalDigest, func(p []byte) {
		copy(p[bytes.Index(p, []byte(target.JournalDigest)):], flipped)
	})
	_, err = New(cfg)
	if got := divergedAt(t, err); got != target.Seq {
		t.Fatalf("diverged at record %d, want the checkpoint at %d: %v", got, target.Seq, err)
	}
	interval := fmt.Sprintf("record %d, the checkpoint of journal events %d–%d:", target.Seq, from+1, target.JournalLen)
	if !strings.Contains(err.Error(), interval) {
		t.Fatalf("error does not name the journal events %d–%d: %v", from+1, target.JournalLen, err)
	}
	if !strings.Contains(err.Error(), `"`+target.JournalDigest+`"`) || !strings.Contains(err.Error(), `"`+string(flipped)+`"`) {
		t.Fatalf("error does not show both digests: %v", err)
	}
}

// TestRecoverInputSeqDivergence: an input the log holds one position
// late — swapped with the record after it — is caught where the input
// is regenerated, at its true position, not run past.
func TestRecoverInputSeqDivergence(t *testing.T) {
	dir, cfg := crashedRun(t, 11)
	st, err := wal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := st.Tail
	i := 0
	for i+1 < len(recs) && !(recs[i].IsInput() && !recs[i+1].IsInput()) {
		i++
	}
	if i+1 == len(recs) {
		t.Fatal("the log holds no input followed by a checkpoint")
	}
	seq := recs[i].Seq
	recs[i], recs[i+1] = recs[i+1], recs[i]
	recs[i].Seq, recs[i+1].Seq = seq, seq+1
	if err := os.Remove(wal.LogPath(dir)); err != nil {
		t.Fatal(err)
	}
	lg, err := wal.Create(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		lg.Append(r)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = New(cfg)
	if got := divergedAt(t, err); got != seq {
		t.Fatalf("diverged at record %d, want the input at %d: %v", got, seq, err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf(`log holds {"seq":%d,`, seq)) || !strings.Contains(err.Error(), `"kind":"checkpoint"`) {
		t.Fatalf("error does not show the checkpoint the log holds in the input's place: %v", err)
	}
}

// TestRecoverConfigDriftStopsEarly: rebuilding on a federation one
// cluster short fails at the first record that differs, not after
// regenerating the whole history.
func TestRecoverConfigDriftStopsEarly(t *testing.T) {
	dir, cfg := crashedRun(t, 11)
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
	_, err = New(drifted)
	if at := divergedAt(t, err); at > st.LastSeq/2 {
		t.Fatalf("diverged at record %d of %d: %v", at, st.LastSeq, err)
	}
}

// TestRebuildEmitRetainsNothing: regenerating a checkpoint and checking
// it against the log tail allocates nothing — the recorder keeps no
// copy of the stream it verifies — and still sees a checkpoint that
// differs. Each run feeds the observer the journal's hash at one
// checkpoint: checkpointEvery events, of which it sees the last.
func TestRebuildEmitRetainsNothing(t *testing.T) {
	eng := sim.NewEngine()
	const n = 300
	events := make([]obs.Event, n)
	frames := make([][]byte, n)
	tail := make([]wal.Record, n)
	h := sha256.New()
	for i := range events {
		ev := obs.Event{At: sim.Time(i), Batch: "batch-000001", Job: fmt.Sprintf("batch-000001-r%04d", i), Stage: obs.StageDispatch, Resource: "umd-hpc"}
		events[i] = ev
		for k := 0; k < checkpointEvery; k++ {
			frames[i] = obs.AppendEvent(frames[i], ev)
		}
		h.Write(frames[i])
		tail[i] = wal.Record{Seq: uint64(i + 1), At: ev.At, Kind: wal.KindCheckpoint,
			JournalLen: (i + 1) * checkpointEvery, JournalDigest: hex.EncodeToString(h.Sum(nil))}
	}
	tail[n-1].JournalDigest = strings.Repeat("0", 64) // only the log says this
	rec := &recorder{eng: eng, seed: 1, rb: &rebuild{log: tail}}
	live := sha256.New()
	i := 0
	checkpoint := func() {
		live.Write(frames[i])
		rec.observe(events[i], (i+1)*checkpointEvery, live)
		i++
	}
	if allocs := testing.AllocsPerRun(n-100, checkpoint); allocs != 0 {
		t.Errorf("emit in rebuild mode allocates %v times per checkpoint", allocs)
	}
	if err := rec.diverged(); err != nil || rec.count != uint64(i) {
		t.Fatalf("after %d matching checkpoints (count %d): %v", i, rec.count, err)
	}
	for i < n {
		checkpoint()
	}
	err := rec.diverged()
	if err == nil || divergedAt(t, err) != n {
		t.Fatalf("the differing checkpoint %d went unnoticed: %v", n, err)
	}
	if want := fmt.Sprintf("journal events %d–%d", (n-1)*checkpointEvery+1, n*checkpointEvery); !strings.Contains(err.Error(), want) {
		t.Fatalf("error does not name %s: %v", want, err)
	}
}
