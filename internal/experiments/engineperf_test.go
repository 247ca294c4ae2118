package experiments

import (
	"strings"
	"testing"
)

// TestEnginePerfShape pins the engine comparison's qualitative claims
// at a size small enough for CI: incremental evaluation must be exact,
// save a substantial share of the work, and parallel search must be
// deterministic across worker counts. (`gridbench -run perf` prints the
// full-size table; the ledger's search50 workload times the engine.)
func TestEnginePerfShape(t *testing.T) {
	t.Parallel()
	r, err := EnginePerf(1, 12, 200, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !r.IncrementalExact {
		t.Error("incremental search result differs from full recompute")
	}
	if !r.ParallelDeterministic {
		t.Error("parallel search not deterministic across worker counts")
	}
	if r.SpeedupVsFull < 2 {
		t.Errorf("incremental speedup vs full recompute = ×%.2f, want >= ×2", r.SpeedupVsFull)
	}
	if r.ReuseFraction <= 0.3 {
		t.Errorf("partials reuse fraction = %.2f, want > 0.3", r.ReuseFraction)
	}
	if s := r.String(); !strings.Contains(s, "Engine performance") {
		t.Errorf("unexpected rendering:\n%s", s)
	}
}
