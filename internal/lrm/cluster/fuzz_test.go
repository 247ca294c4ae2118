package cluster

import "testing"

// FuzzAllocators explores the stream space past
// TestMatchesParentAllocators' seeded table: any side, any stream seed
// and, on the pool, a requeue limit of 0 to 3. The one-slot cluster
// must match the parent allocator line for line.
func FuzzAllocators(f *testing.F) {
	for i := range allocatorSides {
		f.Add(uint8(i), int64(i+1), uint8(i))
	}
	f.Fuzz(func(t *testing.T, side uint8, seed int64, maxRequeues uint8) {
		matchParent(t, allocatorSides[int(side)%len(allocatorSides)], seed, int(maxRequeues%4))
	})
}
