package forest_test

import (
	"math"
	"runtime"
	"testing"

	"lattice/internal/estimate"
	"lattice/internal/forest"
	"lattice/internal/workload"
)

// paperShape is the estimator's bootstrap training problem at rows
// jobs: at 150, the paper's initial matrix over the nine predictors,
// MTry 3 — what every retrain on the grid pays for at least once.
func paperShape(tb testing.TB, rows, trees int) (*forest.Dataset, forest.Config) {
	specs, secs := workload.NewGenerator(3).TrainingJobs(rows)
	ds := &forest.Dataset{Schema: estimate.Schema()}
	for i := range specs {
		if err := ds.Append(estimate.Features(&specs[i]), math.Log(secs[i])); err != nil {
			tb.Fatal(err)
		}
	}
	return ds, forest.Config{NumTrees: trees, MTry: 3, Seed: 1}
}

// TestTrainAllocationBudget keeps per-node, per-row and per-call
// garbage out of tree growth. A tree costs the two objects that outlive
// it and are its own (nodes, oob) — its header and its gain row are cut
// from the forest's tree and gain slices — and the call a constant
// (those two slices, builder scratch, the column-major matrix, OOB
// sums): 1 029 objects for 500 trees on the 150-row shape, 2 028 when
// every tree had its own header and gain row. A row costs nothing, so a
// matrix four times the size trains in the same count. Per-node row
// slices, sort closures and per-tree RNG sources once ran to 184 099
// objects and 25.4 MB on the 150-row shape, and a copy of the matrix
// once cost an object per row.
func TestTrainAllocationBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one worker, one builder
	const trees = 500
	allocs := func(rows int) float64 {
		ds, cfg := paperShape(t, rows, trees)
		return testing.AllocsPerRun(3, func() {
			if _, err := forest.Train(ds, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(150), allocs(600)
	t.Logf("Train allocates %.0f objects on 150 rows, %.0f on 600", small, large)
	if budget := float64(2*trees + 30); small > budget {
		t.Errorf("Train allocates %.0f objects, budget %.0f", small, budget)
	}
	if math.Abs(large-small) > 8 {
		t.Errorf("Train allocates %.0f objects on 150 rows but %.0f on 600: rows cost allocations", small, large)
	}
	ds, cfg := paperShape(t, 150, trees)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := forest.Train(ds, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b > 1<<20 {
		t.Errorf("Train allocates %d bytes, budget %d", b, 1<<20)
	}
}

var benchForest *forest.Forest

func benchmarkTrain(b *testing.B, trees int) {
	ds, cfg := paperShape(b, 150, trees)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := forest.Train(ds, cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchForest = f
	}
}

// BenchmarkTrain is one estimator retrain at the default ensemble size.
func BenchmarkTrain(b *testing.B) { benchmarkTrain(b, 500) }

// BenchmarkTrainPaper is one retrain at the paper's 10^4 trees.
func BenchmarkTrainPaper(b *testing.B) { benchmarkTrain(b, 10000) }
