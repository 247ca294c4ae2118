package wal

import (
	"strings"
	"testing"

	"lattice/internal/workload"
)

// FuzzDecodeRecord feeds decodeRecord arbitrary bytes. It must never
// panic, and whatever it accepts must survive the round trip recovery
// relies on: decoding the record's own encoding gives back the same
// record, field for field (Comparer).
func FuzzDecodeRecord(f *testing.F) {
	recs := makeRecords(8) // genesis, stage, checkpoint, submission
	recs = append(recs,
		Record{Seq: 9, At: 13.5, Kind: KindUser, Email: "u@example.edu", Token: "t0k"},
		Record{Seq: 10, At: 14, Kind: KindCheckpoint, JournalLen: 4096, JournalDigest: strings.Repeat("c0", 32)},
		Record{Seq: 11, Step: 1 << 33, At: 15, Kind: KindWorkflow, Origin: "portal", WF: &workload.Workflow{
			Name: "standard", UserEmail: "w@example.edu", Seed: -7, Stages: []workload.WorkflowStage{
				{ID: "search", Replicates: 2, Short: true},
				{ID: "bootstrap", Replicates: 100, Bootstrap: true, After: []string{"search"}},
			},
		}},
		Record{Seq: 12, At: 16, Kind: KindSubmission, Queued: true, Sub: &workload.Submission{
			Spec:      workload.JobSpec{SubstModel: "GTR", NumTaxa: 50, SeqLength: 1000, GammaShape: 0.5, Seed: 3},
			Bootstrap: true, ServiceOnly: true, Replicates: 2000, UserEmail: "u@example.edu", BatchTag: "batch-000001",
		}},
	)
	for i := range recs {
		p := appendRecord(nil, &recs[i])
		f.Add(p)
		f.Add(p[:len(p)/2])
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		r, err := decodeRecord(p, new(arena))
		if err != nil {
			return
		}
		enc := appendRecord(nil, &r)
		back, err := decodeRecord(enc, new(arena))
		if err != nil {
			t.Fatalf("re-encoding %x of an accepted record does not decode: %v", enc, err)
		}
		var cmp Comparer
		if !cmp.Equal(&r, &back) {
			t.Fatalf("round trip changed the record: encoded %x, re-encoded %x", enc, appendRecord(nil, &back))
		}
	})
}
