package metasched

import (
	"fmt"
	"testing"
)

// unplaceableGrid queues n jobs no published resource has the memory
// for: every scan examines all of them and places none.
func unplaceableGrid(t testing.TB, n int) *viewGrid {
	cfg := DefaultConfig()
	cfg.RescanInterval = 0 // the caller scans by hand
	g := newViewGrid(t, cfg, map[string]float64{"a-fast": 4, "b-slow": 1})
	g.publish("a-fast", "b-slow")
	for i := 0; i < n; i++ {
		d := jobDesc(fmt.Sprintf("big-%d", i), 600)
		d.MaxMemoryMB = 1 << 20
		if _, err := g.sched.Submit(d, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(g.sched.pending) != n {
		t.Fatalf("%d of %d jobs pending", len(g.sched.pending), n)
	}
	return g
}

// The first scan sizes the spare buffer; from then on the queue and the
// spare trade places and a scan allocates nothing.
func TestScanPendingSteadyStateDoesNotAllocate(t *testing.T) {
	g := unplaceableGrid(t, 2000)
	first := g.sched.pending[0]
	g.sched.scanPending()
	if allocs := testing.AllocsPerRun(20, g.sched.scanPending); allocs != 0 {
		t.Errorf("steady-state scan of 2000 pending jobs allocates %v", allocs)
	}
	if len(g.sched.pending) != 2000 || g.sched.pending[0] != first {
		t.Errorf("scans reordered or lost the queue: %d pending", len(g.sched.pending))
	}
}

func BenchmarkScanPending2000(b *testing.B) {
	g := unplaceableGrid(b, 2000)
	g.sched.scanPending()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.sched.scanPending()
	}
}
