package gsbl

import (
	"testing"
	"unsafe"
)

// batchMaxBytes is the largest Batch that fits the allocator's 288-byte
// size class on a 64-bit target. A batch is the one record a
// submission costs, kept for the service's life: 10^5 of them on a
// one-replicate-per-user load. Its job tallies are int32 to stay here.
const batchMaxBytes = 288

// TestBatchLayout pins the record's size class.
func TestBatchLayout(t *testing.T) {
	if n := unsafe.Sizeof(Batch{}); n > batchMaxBytes {
		t.Errorf("Batch is %d bytes, want at most %d", n, batchMaxBytes)
	} else {
		t.Logf("Batch is %d bytes", n)
	}
}
