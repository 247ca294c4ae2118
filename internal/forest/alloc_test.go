package forest_test

import (
	"math"
	"runtime"
	"testing"

	"lattice/internal/estimate"
	"lattice/internal/forest"
	"lattice/internal/workload"
)

// paperShape is the estimator's bootstrap training problem: the
// paper's initial ~150-job matrix over the nine predictors, MTry 3 —
// what every retrain on the grid pays for at least once.
func paperShape(tb testing.TB, trees int) (*forest.Dataset, forest.Config) {
	specs, secs := workload.NewGenerator(3).TrainingJobs(150)
	ds := &forest.Dataset{Schema: estimate.Schema()}
	for i := range specs {
		if err := ds.Append(estimate.Features(&specs[i]), math.Log(secs[i])); err != nil {
			tb.Fatal(err)
		}
	}
	return ds, forest.Config{NumTrees: trees, MTry: 3, MinLeafSize: 5, Seed: 1, Workers: 1}
}

// TestTrainAllocationBudget keeps per-node and per-call garbage out of
// tree growth. A tree may cost the objects that outlive it (its
// header, nodes, oob, gain) and the call a few per row (the dataset
// snapshot) plus a constant (builder scratch, OOB arrays). Per-node
// row slices, sort closures and per-tree RNG sources once ran to
// 184 099 objects and 25.4 MB on this shape.
func TestTrainAllocationBudget(t *testing.T) {
	ds, cfg := paperShape(t, 500)
	train := func() {
		if _, err := forest.Train(ds, cfg); err != nil {
			t.Fatal(err)
		}
	}
	budget := float64(6*cfg.NumTrees + 4*ds.NumRows() + 64)
	if n := testing.AllocsPerRun(3, train); n > budget {
		t.Errorf("Train allocates %.0f objects, budget %.0f", n, budget)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	train()
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b > 1<<20 {
		t.Errorf("Train allocates %d bytes, budget %d", b, 1<<20)
	}
}

var benchForest *forest.Forest

func benchmarkTrain(b *testing.B, trees int) {
	ds, cfg := paperShape(b, trees)
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
