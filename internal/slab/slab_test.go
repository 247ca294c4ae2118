package slab

import (
	"math/rand"
	"runtime/debug"
	"testing"
)

// TestStringsOutliveLaterAppends cuts strings of generated lengths —
// empty ones, ones that cross a chunk boundary, ones longer than a
// chunk — from one slab, overwrites each input buffer after the cut,
// and checks that every string still equals its input after 10^5 later
// appends.
func TestStringsOutliveLaterAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lengths := []int{0, 1, chunkSize - 1, 2, chunkSize, 0, chunkSize + 1, 3 * chunkSize, 7}
	for len(lengths) < 100_000 {
		switch rng.Intn(100) {
		case 0:
			lengths = append(lengths, chunkSize+rng.Intn(2*chunkSize))
		case 1, 2, 3:
			lengths = append(lengths, 0)
		case 4, 5:
			lengths = append(lengths, chunkSize/2+rng.Intn(chunkSize/2))
		default:
			lengths = append(lengths, 1+rng.Intn(64))
		}
	}
	var s Slab
	want := make([]string, len(lengths))
	got := make([]string, len(lengths))
	buf := make([]byte, 3*chunkSize)
	for i, n := range lengths {
		p := buf[:n]
		rng.Read(p)
		want[i] = string(p)
		got[i] = s.String(p)
		rng.Read(p) // the caller reuses its buffer
		if got[i] != want[i] {
			t.Fatalf("string %d (%d bytes) differs as returned", i, n)
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("string %d (%d bytes) changed after later appends", i, lengths[i])
		}
	}
}

// TestStringAllocatesPerChunk: short strings cost one allocation per
// chunk they fill, and an empty one costs nothing. The collector is off
// for the count: a cycle allocates a few objects of its own.
func TestStringAllocatesPerChunk(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var s Slab
	p := []byte("shard13-batch-123456")
	const n = 10_000
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			_ = s.String(p)
		}
	})
	// A chunk holds chunkSize/len(p) strings; one more for the chunk the
	// warm-up run left partly filled.
	if chunks := float64(n/(chunkSize/len(p)) + 1); allocs > chunks {
		t.Errorf("%d strings of %d bytes: %.0f allocations, want at most %.0f", n, len(p), allocs, chunks)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = s.String(nil) }); allocs != 0 {
		t.Errorf("empty string: %.0f allocations, want 0", allocs)
	}
}
