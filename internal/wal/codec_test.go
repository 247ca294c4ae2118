package wal

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"lattice/internal/sim"
	"lattice/internal/workload"
)

// fillDistinct sets every field reachable from v — through pointers,
// nested structs and slices (two elements each) — to a non-zero value
// no other field shares, so a field the codec skips, swaps or merges
// cannot survive a round trip.
func fillDistinct(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillDistinct(t, v.Elem(), n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(t, v.Field(i), n)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), n)
		}
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("field of kind %s: teach codec.go to encode it, then this walker to fill it", v.Kind())
	}
}

// TestCodecCoversEveryField is the drift guard: a field added to
// Record, Submission, JobSpec, Workflow or WorkflowStage without codec
// support comes back zero here instead of vanishing on recovery.
func TestCodecCoversEveryField(t *testing.T) {
	for _, kind := range kinds[1:] {
		var r Record
		n := 0
		fillDistinct(t, reflect.ValueOf(&r).Elem(), &n)
		r.Kind = kind
		if r.Sub == nil || r.WF == nil || len(r.WF.Stages) != 2 || len(r.WF.Stages[1].After) != 2 {
			t.Fatalf("walker left payloads unfilled: %+v", r)
		}
		got, err := decodeRecord(appendRecord(nil, &r), new(arena))
		if err != nil {
			t.Fatalf("%s: decode: %v", kind, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("%s: round trip lost a field:\n got %s\nwant %s", kind, recordJSON(t, got), recordJSON(t, r))
		}
	}
}

func stages(n int) []workload.WorkflowStage {
	var out []workload.WorkflowStage
	for i := 0; i < n; i++ {
		st := workload.WorkflowStage{ID: fmt.Sprintf("stage-%03d", i), Replicates: i + 1, Short: i%2 == 0}
		if i > 0 {
			st.After = []string{out[i-1].ID}
		}
		out = append(out, st)
	}
	return out
}

func TestCodecRoundTripCases(t *testing.T) {
	cases := map[string]Record{
		"genesis at zero": {Seq: 1, Kind: KindGenesis, Seed: -42},
		"at +Inf":         {Seq: 2, At: sim.Time(math.Inf(1)), Kind: KindCheckpoint, JournalLen: math.MaxInt, JournalDigest: strings.Repeat("ab", 32)},
		"at -Inf":         {Seq: 3, At: sim.Time(math.Inf(-1)), Kind: KindCheckpoint, JournalLen: -1},
		"empty strings":   {Seq: 4, At: 1, Kind: KindStage},
		"70 KiB detail":   {Seq: 1 << 40, At: 2, Kind: KindStage, Detail: strings.Repeat("d", 70<<10)},
		"zero stages":     {Seq: 5, Step: 300, At: 3, Kind: KindWorkflow, WF: &workload.Workflow{Name: "w"}},
		"200 stages":      {Seq: 6, At: 4, Kind: KindWorkflow, WF: &workload.Workflow{Name: "w", Seed: 9, Stages: stages(200)}},
		"queued submission": {Seq: 7, At: 5, Kind: KindSubmission, Origin: "shard0/core", Queued: true,
			Sub: &workload.Submission{Replicates: 2000, Bootstrap: true, UserEmail: "u@example.edu"}},
		"scheduled at zero": {Seq: 8, Kind: KindSubmission, Origin: "shard1/core", Scheduled: true,
			Sub: &workload.Submission{Replicates: 1, UserEmail: "v@example.edu"}},
		"scheduled later": {Seq: 9, Step: 17, At: 6, Kind: KindSubmission, Origin: "shard1/core", Scheduled: true, Due: 7.25, Queued: true,
			Sub: &workload.Submission{Replicates: 1, UserEmail: "w@example.edu"}},
	}
	var buf []byte // reused across cases: growth must not leak one record into the next
	for name, want := range cases {
		buf = appendRecord(buf[:0], &want)
		got, err := decodeRecord(buf, new(arena))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %s want %s", name, recordJSON(t, got), recordJSON(t, want))
		}
	}
}

// TestDecodeRejects: whatever appendRecord cannot have written is an
// error naming the defect — never a panic, never a silently different
// record.
func TestDecodeRejects(t *testing.T) {
	good := appendRecord(nil, &Record{Seq: 9, At: 1.5, Kind: KindStage, Batch: "b", Job: "j", Stage: "place"})
	if _, err := decodeRecord(good, new(arena)); err != nil {
		t.Fatalf("reference record: %v", err)
	}
	mutate := func(f func(p []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	const batchLen = 1 + 1 + 1 + 8 + 8 + 1 // kind, seq, step, at, due, flags: offset of Batch's length prefix
	cases := map[string]struct {
		p    []byte
		want string
	}{
		"empty":            {nil, "ends inside"},
		"trailing byte":    {mutate(func(p []byte) []byte { return append(p, 0) }), "trailing"},
		"kind zero":        {mutate(func(p []byte) []byte { p[0] = 0; return p }), "unknown kind"},
		"kind past table":  {mutate(func(p []byte) []byte { p[0] = byte(len(kinds)); return p }), "unknown kind"},
		"unknown flag":     {mutate(func(p []byte) []byte { p[batchLen-1] = 0x80; return p }), "unknown flag"},
		"over-long string": {mutate(func(p []byte) []byte { p[batchLen] = 0x7f; return p }), "length prefix"},
		"huge length": {mutate(func(p []byte) []byte {
			return append(p[:batchLen], 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
		}), "length prefix"},
		"missing payload": {mutate(func(p []byte) []byte { p[batchLen-1] = flagSub; return p }), "varint"},
	}
	for name, c := range cases {
		_, err := decodeRecord(c.p, new(arena))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", name, err, c.want)
		}
	}
	for cut := 0; cut < len(good); cut++ {
		if _, err := decodeRecord(good[:cut], new(arena)); err == nil {
			t.Errorf("record truncated to %d of %d bytes decoded", cut, len(good))
		}
	}
}

// TestIntFieldOutOfRange splices a varint of 1<<40 into an int field.
// A 64-bit int holds it; a 32-bit one cannot, and the decoder must
// refuse it there rather than return a silently different number
// (GOARCH=386 go test ./internal/wal).
func TestIntFieldOutOfRange(t *testing.T) {
	const big = int64(1) << 40
	zero := appendRecord(nil, &Record{Seq: 1, Kind: KindCheckpoint})
	seven := appendRecord(nil, &Record{Seq: 1, Kind: KindCheckpoint, JournalLen: 7})
	at := 0 // JournalLen's one-byte varint is where the encodings first differ
	for zero[at] == seven[at] {
		at++
	}
	p := append(binary.AppendVarint(append([]byte(nil), zero[:at]...), big), zero[at+1:]...)
	r, err := decodeRecord(p, new(arena))
	if strconv.IntSize == 64 {
		if err != nil || int64(r.JournalLen) != big {
			t.Fatalf("64-bit int: JournalLen %d, err %v; want %d", r.JournalLen, err, big)
		}
		return
	}
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("%d-bit int: JournalLen %d, err %v; want an out-of-range error", strconv.IntSize, r.JournalLen, err)
	}
}

// TestDecodedStringsOwnTheirBytes decodes a frame, overwrites the buffer
// it was read from, and finds every string of the record unchanged: the
// decoder copies strings out, it never aliases the log image.
func TestDecodedStringsOwnTheirBytes(t *testing.T) {
	want := Record{Seq: 3, At: 2.5, Kind: KindSubmission, Origin: "shard2/core", Queued: true,
		Sub: &workload.Submission{Replicates: 4, UserEmail: "u@example.edu", BatchTag: "shard2-batch-000003",
			Spec: workload.JobSpec{SubstModel: "GTR", NumTaxa: 50}}}
	data := appendFrame(nil, &want)
	got, next, err := decodeFrame(data, 0, new(arena))
	if err != nil || next != len(data) {
		t.Fatalf("decodeFrame: next %d of %d, %v", next, len(data), err)
	}
	for i := range data {
		data[i] = '#'
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after the read buffer was overwritten: got %s want %s", recordJSON(t, got), recordJSON(t, want))
	}
}

// TestHotPathsAllocateNothing pins the per-record costs the binary
// codec exists for: appending a record and comparing a regenerated
// record against a logged one allocate nothing once the buffers have
// grown.
func TestHotPathsAllocateNothing(t *testing.T) {
	lg, err := Create(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sub := workload.Submission{Replicates: 1, UserEmail: "u00017@example.edu", Spec: workload.JobSpec{SubstModel: "GTR", NumTaxa: 50}}
	stage := Record{At: 12.5, Kind: KindStage, Batch: "shard0-batch-000017", Job: "shard0-batch-000017-r0000", Stage: "dispatch", Resource: "pbs03"}
	queued := Record{At: 12.5, Kind: KindSubmission, Origin: "shard0/core", Sub: &sub, Queued: true}
	checkpoint := Record{At: 12.5, Kind: KindCheckpoint, JournalLen: 4096, JournalDigest: strings.Repeat("5e", 32)}
	seq := uint64(0)
	for name, r := range map[string]Record{"stage": stage, "queued submission": queued, "checkpoint": checkpoint} {
		if n := testing.AllocsPerRun(100, func() {
			seq++
			r.Seq = seq
			lg.Append(r)
		}); n != 0 {
			t.Errorf("Append of a %s record allocates %v times", name, n)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	var cmp Comparer
	logged := queued
	logged.Sub = &workload.Submission{}
	*logged.Sub = sub
	if n := testing.AllocsPerRun(100, func() {
		if !cmp.Equal(&queued, &logged) || cmp.Equal(&queued, &checkpoint) {
			t.Fatal("Comparer is wrong")
		}
	}); n != 0 {
		t.Errorf("comparing one record allocates %v times", n)
	}
	logged.Step = 1
	if cmp.Equal(&queued, &logged) {
		t.Error("records differing only in Step compare equal")
	}
	logged.Step, logged.Scheduled = 0, true
	if cmp.Equal(&queued, &logged) {
		t.Error("records differing only in Scheduled compare equal")
	}
	regenerated := checkpoint
	regenerated.JournalDigest = strings.Repeat("5e", 31) + "5f"
	if cmp.Equal(&checkpoint, &regenerated) {
		t.Error("checkpoints differing only in the digest's last byte compare equal")
	}
}
