package forest

import (
	"math"
	"sync"
	"testing"

	"lattice/internal/sim"
)

// stressDataset builds a synthetic regression problem with numeric
// and categorical covariates.
func stressDataset(n int, seed int64) *Dataset {
	schema := &Schema{
		Names: []string{"a", "b", "c", "kind"},
		Kinds: []FeatureKind{Numeric, Numeric, Numeric, Categorical},
	}
	rng := sim.NewRNG(seed)
	ds := &Dataset{Schema: schema}
	for i := 0; i < n; i++ {
		a := rng.Uniform(0, 10)
		b := rng.Uniform(-5, 5)
		c := rng.Uniform(0, 1)
		k := float64(rng.Intn(4))
		y := 3*a - 2*b + 5*c*c + 4*k + rng.Normal(0, 0.5)
		ds.X = append(ds.X, []float64{a, b, c, k})
		ds.Y = append(ds.Y, y)
	}
	return ds
}

// TestTrainConcurrentStress trains several forests at once on one
// shared dataset under the race detector. Train clones the dataset
// and derives a per-tree RNG stream from the seed, so concurrent
// trainings must neither race nor disturb each other's determinism.
func TestTrainConcurrentStress(t *testing.T) {
	ds := stressDataset(300, 7)
	cfg := Config{NumTrees: 60, MinLeafSize: 3, Seed: 11, Workers: 4}

	const trainers = 4
	forests := make([]*Forest, trainers)
	var wg sync.WaitGroup
	for i := 0; i < trainers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := Train(ds, cfg)
			if err != nil {
				t.Errorf("trainer %d: %v", i, err)
				return
			}
			forests[i] = f
		}(i)
	}
	wg.Wait()

	// Same dataset, same seed: every concurrent training must land on
	// the identical model.
	probe := []float64{5, 0, 0.5, 2}
	want := forests[0].Predict(probe)
	if math.IsNaN(want) || math.IsInf(want, 0) {
		t.Fatalf("degenerate prediction %v", want)
	}
	for i := 1; i < trainers; i++ {
		if got := forests[i].Predict(probe); got != want {
			t.Errorf("trainer %d predicts %v, trainer 0 predicts %v; concurrent training is nondeterministic", i, got, want)
		}
		if got, first := forests[i].OOBMSE(), forests[0].OOBMSE(); got != first {
			t.Errorf("trainer %d OOB MSE %v differs from trainer 0's %v", i, got, first)
		}
	}
}

// TestForestConcurrentReaders hammers one trained forest from many
// goroutines: Predict, OOB accessors and both importance measures are
// read-only and must be safe to share.
func TestForestConcurrentReaders(t *testing.T) {
	ds := stressDataset(300, 19)
	f, err := Train(ds, Config{NumTrees: 60, MinLeafSize: 3, Seed: 23, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := sim.NewRNG(int64(100 + r))
			for i := 0; i < 50; i++ {
				x := []float64{rng.Uniform(0, 10), rng.Uniform(-5, 5), rng.Uniform(0, 1), float64(rng.Intn(4))}
				if p := f.Predict(x); math.IsNaN(p) {
					t.Errorf("reader %d: NaN prediction", r)
					return
				}
			}
			_ = f.OOBMSE()
			_ = f.PercentVarExplained()
			_ = f.Importance(int64(r))
			_ = f.GainImportance()
		}(r)
	}
	wg.Wait()
}

// TestConcurrentBuildersMatchReference trains one shared adversarial
// dataset at 1, 2 and 8 workers, all at once, and holds every forest
// to the reference oracle node for node: worker-resident scratch must
// neither race with another builder's nor leak from one tree into the
// next, however trees are dealt to workers.
func TestConcurrentBuildersMatchReference(t *testing.T) {
	ds := adversarialDataset(sim.NewRNG(31))
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for _, workers := range []int{1, 2, 8} {
			wg.Add(1)
			go func(workers int) {
				defer wg.Done()
				cfg := Config{NumTrees: 40, MinLeafSize: 2, Seed: 5, Workers: workers}
				f, err := Train(ds, cfg)
				if err != nil {
					t.Errorf("workers %d: %v", workers, err)
					return
				}
				if diff := diffForest(f); diff != "" {
					t.Errorf("workers %d: %s", workers, diff)
				}
			}(workers)
		}
	}
	wg.Wait()
}
