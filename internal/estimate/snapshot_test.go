package estimate

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"lattice/internal/forest"
	"lattice/internal/workload"
)

// TestRetrainAllocatesNothingPerRow pins the snapshot: a retrain cuts
// the training matrix's slices instead of copying its rows, so a
// matrix four times the size retrains in the same allocation count.
func TestRetrainAllocatesNothingPerRow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one worker, one builder
	allocs := func(rows int) float64 {
		e, err := Bootstrap(forest.Config{NumTrees: 20, MTry: 3, Seed: 1}, workload.NewGenerator(4), rows)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if err := e.Retrain(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(150), allocs(600); math.Abs(large-small) > 8 {
		t.Errorf("Retrain allocates %.0f objects on 150 rows but %.0f on 600: rows cost allocations", small, large)
	}
}

// TestSnapshotSurvivesGrowth: a snapshot and the forest trained on it
// share the live matrix's backing arrays. Observations added past
// their capacity (first into the shared arrays, then into reallocated
// ones) and a retrain must leave the snapshot's rows and responses,
// and the old forest's figures, bit for bit as they were.
func TestSnapshotSurvivesGrowth(t *testing.T) {
	gen := workload.NewGenerator(12)
	e, err := Bootstrap(forest.Config{NumTrees: 50, MTry: 3, Seed: 1}, gen, 40)
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Dataset()
	wantX := make([][]float64, len(snap.X))
	for i, row := range snap.X {
		wantX[i] = append([]float64(nil), row...)
	}
	wantY := append([]float64(nil), snap.Y...)
	e.mu.Lock()
	old := e.f
	grow := max(cap(e.ds.X), cap(e.ds.Y)) - e.ds.NumRows() + 1
	e.mu.Unlock()
	wantStats, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	wantImp := old.Importance(7)

	specs, secs := gen.TrainingJobs(grow)
	for i := range specs {
		if err := e.AddObservation(&specs[i], secs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Retrain(); err != nil {
		t.Fatal(err)
	}

	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if len(snap.X) != len(wantX) || len(snap.Y) != len(wantY) {
		t.Fatalf("snapshot grew to %d rows, %d responses; want %d", len(snap.X), len(snap.Y), len(wantX))
	}
	for i := range wantX {
		if !same(snap.Y[i], wantY[i]) {
			t.Errorf("row %d: response %v, want %v", i, snap.Y[i], wantY[i])
		}
		for j := range wantX[i] {
			if !same(snap.X[i][j], wantX[i][j]) {
				t.Errorf("row %d feature %d: %v, want %v", i, j, snap.X[i][j], wantX[i][j])
			}
		}
	}
	if got := old.PercentVarExplained(); !same(got, wantStats.PctVarExplained) {
		t.Errorf("old forest %%Var %v, want %v", got, wantStats.PctVarExplained)
	}
	for j, imp := range old.Importance(7) {
		if imp.Feature != wantImp[j].Feature || !same(imp.PctIncMSE, wantImp[j].PctIncMSE) {
			t.Errorf("old forest importance %d: %+v, want %+v", j, imp, wantImp[j])
		}
	}
	if n := e.Dataset().NumRows(); n != 40+grow {
		t.Errorf("live matrix has %d rows, want %d", n, 40+grow)
	}
}

// TestGrowthWhileReading runs the continuous-retraining loop against
// concurrent readers; under -race it is the proof that snapshots
// sharing the live matrix's backing arrays are safe to read while it
// grows.
func TestGrowthWhileReading(t *testing.T) {
	gen := workload.NewGenerator(13)
	e, err := Bootstrap(forest.Config{NumTrees: 10, MTry: 3, Seed: 1}, gen, 20)
	if err != nil {
		t.Fatal(err)
	}
	probe := gen.Job()
	specs, secs := gen.TrainingJobs(60)
	done := make(chan struct{})
	var wg sync.WaitGroup
	stop := sync.OnceFunc(func() { close(done); wg.Wait() })
	defer stop()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := e.Predict(&probe); err != nil {
					t.Error(err)
					return
				}
				if _, err := e.Stats(); err != nil {
					t.Error(err)
					return
				}
				ds := e.Dataset()
				if ds.NumRows() < last || len(ds.X) != len(ds.Y) {
					t.Errorf("snapshot of %d rows, %d responses after one of %d", len(ds.X), len(ds.Y), last)
					return
				}
				last = ds.NumRows()
				var sum float64
				for i, row := range ds.X {
					sum += ds.Y[i]
					for _, v := range row {
						sum += v
					}
				}
				if math.IsNaN(sum) {
					t.Error("snapshot holds a NaN")
					return
				}
			}
		}()
	}
	for i := range specs {
		if err := e.AddObservation(&specs[i], secs[i]); err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			if err := e.Retrain(); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop()
	if n := e.NumObservations(); n != 80 {
		t.Errorf("matrix has %d rows, want 80", n)
	}
}
