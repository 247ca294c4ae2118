package metasched

import (
	"testing"
	"unsafe"

	"lattice/internal/lrm"
	"lattice/internal/sim"
)

// gridJobMaxBytes is the largest GridJob that fits the allocator's
// 208-byte size class on a 64-bit target. The scheduler keeps one per
// job until its batch ends: 10^5 of them on the scaleout workload, 2000
// per 2000-replicate batch. Storing the description once, in the
// embedded lrm.Job, took the record from 544 bytes (the 576-byte class)
// to 280 (the 288-byte class); dropping the job requests no grid job
// makes (nodes, wall limit, MPI, software) took it to 232 (the 240-byte
// class); dropping the platform list, which GARLI's three platforms made
// match every resource, took it to 208 and this class.
const gridJobMaxBytes = 208

// TestGridJobLayout pins the record's size, and that embedding lrm.Job
// promoted none of the methods that would let a *GridJob pass for an
// event or for a job's owner: the attempt records are both, so a report
// or a firing always names the dispatch it belongs to.
func TestGridJobLayout(t *testing.T) {
	if n := unsafe.Sizeof(GridJob{}); n > gridJobMaxBytes {
		t.Errorf("GridJob is %d bytes, want at most %d", n, gridJobMaxBytes)
	} else {
		t.Logf("GridJob is %d bytes", n)
	}
	var j any = &GridJob{}
	if _, ok := j.(sim.Handler); ok {
		t.Error("*GridJob is a sim.Handler")
	}
	if _, ok := j.(lrm.Owner); ok {
		t.Error("*GridJob is an lrm.Owner")
	}
}
