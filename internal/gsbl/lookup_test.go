package gsbl

import (
	"testing"

	"lattice/internal/obs"
	"lattice/internal/sim"
)

// TestBatchRefusesOtherSpellings: a batch is found by the ID accept
// gave it and by no other spelling of its number or prefix. The portal
// joins the ID into an artifact path, so a second spelling that
// resolved would name a second file for one batch.
func TestBatchRefusesOtherSpellings(t *testing.T) {
	eng, sched, hub := testGrid(t)
	svc := mustService(t, eng, sched, Options{Obs: hub, IDPrefix: "shard1-"})
	b, err := svc.Submit(direct(smallSubmission(1)))
	if err != nil {
		t.Fatal(err)
	}
	if b.ID != "shard1-batch-000001" {
		t.Fatalf("fixture: batch ID %s", b.ID)
	}
	if got, ok := svc.Batch(b.ID); !ok || got != b {
		t.Fatalf("Batch(%s) = %v, %v", b.ID, got, ok)
	}
	for _, id := range []string{
		"shard1-batch-0000001", "shard1-batch-+00001", "shard1-batch-0", "shard1-batch-000000",
		"shard1-batch-00001", "shard1-batch-1", "shard1-batch--00001", "shard1-batch- 00001",
		"shard1-batch-000001 ", "shard1-batch-000001x", "shard1-batch-000001/../x", "shard1-batch-000001\x00",
		"shard0-batch-000001", "shard01-batch-000001", "batch-000001", "shard1-wf-000001",
		"shard1-batch-000002", "shard1-batch-", "shard1-", "",
	} {
		if got, ok := svc.Batch(id); ok {
			t.Errorf("Batch(%q) found %s", id, got.ID)
		}
		if _, err := svc.Status(id); err == nil {
			t.Errorf("Status(%q) found a batch", id)
		}
	}
}

// lookupService holds batches 1 to 12 of shard 1, without running the
// grid.
func lookupService(t testing.TB) *Service {
	eng := sim.NewEngine()
	svc, err := NewService(eng, nil, sim.NewRNG(1), Options{Obs: obs.New(eng), IDPrefix: "shard1-"})
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 12; n++ {
		svc.batches = append(svc.batches, &Batch{ID: svc.batchID(n)})
	}
	return svc
}

// FuzzBatchLookup: whatever id is asked for, Batch resolves it only to
// the batch whose ID is exactly id, and every listed batch resolves by
// its own ID.
func FuzzBatchLookup(f *testing.F) {
	for _, id := range []string{
		"shard1-batch-000001", "shard1-batch-000003", "shard1-batch-000012", "shard1-batch-000013",
		"shard1-batch-0000001", "shard1-batch-+00001", "shard1-batch-0", "shard1-batch-000001/",
		"shard0-batch-000001", "batch-000001", "shard1-batch-1000000",
	} {
		f.Add(id)
	}
	svc := lookupService(f)
	for _, id := range svc.Batches() {
		if b, ok := svc.Batch(id); !ok || b.ID != id {
			f.Fatalf("listed batch %s does not resolve", id)
		}
	}
	f.Fuzz(func(t *testing.T, id string) {
		if b, ok := svc.Batch(id); ok && b.ID != id {
			t.Fatalf("Batch(%q) resolved to %s", id, b.ID)
		}
	})
}
