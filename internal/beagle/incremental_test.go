package beagle

import (
	"fmt"
	"math"
	"testing"

	"lattice/internal/phylo"
	"lattice/internal/sim"
)

// mutate applies one random GA-style move to the tree and returns a
// label for failure messages.
func mutate(t *phylo.Tree, rng *sim.RNG) string {
	switch rng.Intn(4) {
	case 0:
		t.NNI(rng)
		return "NNI"
	case 1:
		t.SPR(6, rng)
		return "SPR"
	case 2:
		// Single branch-length change, mutated in place — exactly what
		// the golden-section optimizer does between evaluations.
		n := t.Nodes[1+rng.Intn(len(t.Nodes)-1)]
		if n.Parent != nil {
			n.Length = math.Max(1e-8, n.Length*rng.LogNormal(0, 0.3))
		}
		return "brlen"
	default:
		// Whole-tree jiggle (the GA's population diversification).
		t.PostOrder(func(n *phylo.Node) {
			if n.Parent != nil {
				n.Length = math.Max(1e-8, n.Length*rng.LogNormal(0, 0.1))
			}
		})
		return "perturb"
	}
}

// mutationSequenceCases parameterizes the bit-identity harness over
// every kernel family: the unrolled 4-state nucleotide path and the
// generic path at amino-acid (20) and codon (61) state counts. The
// non-nucleotide fixtures are smaller so the reference engine's full
// recomputation stays affordable, but run the same 200-step sequence.
var mutationSequenceCases = []struct {
	name   string
	dt     phylo.DataType
	ncats  int
	ntaxa  int
	nsites int
	seeds  []int64
}{
	{"nucleotide", phylo.Nucleotide, 4, 14, 400, []int64{1, 2, 3}},
	{"aa", phylo.AminoAcid, 2, 9, 160, []int64{4}},
	{"codon", phylo.Codon, 1, 7, 60, []int64{5}},
}

// TestIncrementalMatchesFullOverMutationSequence is the tentpole
// property test: over a long random sequence of NNI / SPR / branch-
// length mutations, incremental re-evaluation must be bit-identical to
// full recomputation on a second engine, and within 1e-9 (relative) of
// the reference implementation — for nucleotide, amino-acid, and codon
// state spaces.
func TestIncrementalMatchesFullOverMutationSequence(t *testing.T) {
	for _, tc := range mutationSequenceCases {
		for _, seed := range tc.seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				runMutationSequence(t, tc.dt, tc.ncats, tc.ntaxa, tc.nsites, seed)
			})
		}
	}
}

func runMutationSequence(t *testing.T, dt phylo.DataType, ncats, ntaxa, nsites int, seed int64) {
	fx := newFixture(t, 400+seed, dt, ncats, ntaxa, nsites)
	ref, err := phylo.NewLikelihood(fx.data, fx.model, fx.rates)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := New(fx.data, fx.model, fx.rates)
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(fx.data, fx.model, fx.rates)
	if err != nil {
		t.Fatal(err)
	}
	full.SetIncremental(false)
	rng := sim.NewRNG(seed)
	tr := fx.tree.Clone()
	for step := 0; step < 200; step++ {
		move := mutate(tr, rng)
		a := inc.LogLikelihood(tr)
		b := full.LogLikelihood(tr)
		if a != b {
			t.Fatalf("step %d (%s): incremental %v != full %v (diff %g)",
				step, move, a, b, a-b)
		}
		c := ref.LogLikelihood(tr)
		if math.Abs(a-c) > 1e-9*math.Abs(c) {
			t.Fatalf("step %d (%s): incremental %v vs reference %v", step, move, a, c)
		}
	}
	st := inc.Stats()
	if st.PartialsReused == 0 {
		t.Error("incremental engine never reused a partial over 200 mutations")
	}
	t.Logf("reuse fraction over sequence: %.1f%% (computed %d, reused %d)",
		100*st.ReuseFraction(), st.PartialsComputed, st.PartialsReused)
}

// TestIncrementalAcrossClones drives one engine with alternating clones
// of different trees — the GA population pattern, where successive
// LogLikelihood calls see different individuals sharing node-ID layout.
// With per-tree banks each individual keeps its own cached state, and
// every kernel family (4-state and generic) must stay bit-identical to
// full recomputation.
func TestIncrementalAcrossClones(t *testing.T) {
	cases := []struct {
		name   string
		dt     phylo.DataType
		ncats  int
		ntaxa  int
		nsites int
	}{
		{"nucleotide", phylo.Nucleotide, 4, 10, 300},
		{"aa", phylo.AminoAcid, 2, 8, 120},
		{"codon", phylo.Codon, 1, 6, 50},
	}
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fx := newFixture(t, int64(31+ci), c.dt, c.ncats, c.ntaxa, c.nsites)
			inc, _ := New(fx.data, fx.model, fx.rates)
			full, _ := New(fx.data, fx.model, fx.rates)
			full.SetIncremental(false)
			rng := sim.NewRNG(5)
			pop := make([]*phylo.Tree, 4)
			for i := range pop {
				pop[i] = fx.tree.Clone()
				for j := 0; j <= i; j++ {
					mutate(pop[i], rng)
				}
			}
			for round := 0; round < 20; round++ {
				i := rng.Intn(len(pop))
				mutate(pop[i], rng)
				for k, tr := range pop {
					a, b := inc.LogLikelihood(tr), full.LogLikelihood(tr)
					if a != b {
						t.Fatalf("round %d individual %d: incremental %v != full %v", round, k, a, b)
					}
				}
			}
		})
	}
}

// TestIncrementalUnderMemoryBudget squeezes the bank budget so far
// that every tree's bank is evicted between visits: results must stay
// bit-identical to full recomputation — eviction may only cost speed,
// never correctness.
func TestIncrementalUnderMemoryBudget(t *testing.T) {
	fx := newFixture(t, 61, phylo.Nucleotide, 4, 10, 300)
	inc, _ := New(fx.data, fx.model, fx.rates)
	inc.setMemoryBudget(1) // clamps to one buffer: nothing survives
	full, _ := New(fx.data, fx.model, fx.rates)
	full.SetIncremental(false)
	rng := sim.NewRNG(13)
	pop := make([]*phylo.Tree, 6)
	for i := range pop {
		pop[i] = fx.tree.Clone()
		mutate(pop[i], rng)
	}
	for round := 0; round < 10; round++ {
		mutate(pop[rng.Intn(len(pop))], rng)
		for k, tr := range pop {
			a, b := inc.LogLikelihood(tr), full.LogLikelihood(tr)
			if a != b {
				t.Fatalf("round %d individual %d: incremental %v != full %v", round, k, a, b)
			}
		}
	}
	if inc.Stats().BankEvictions == 0 {
		t.Error("budget of 1 byte never evicted a bank")
	}
}

// TestIncrementalAcrossTreeSizes exercises the wholesale invalidation
// on node-count changes (the stepwise-addition pattern: the engine sees
// a growing sequence of partial trees).
func TestIncrementalAcrossTreeSizes(t *testing.T) {
	fx := newFixture(t, 33, phylo.Nucleotide, 2, 12, 200)
	inc, _ := New(fx.data, fx.model, fx.rates)
	full, _ := New(fx.data, fx.model, fx.rates)
	full.SetIncremental(false)
	rng := sim.NewRNG(6)
	small := phylo.RandomTree(phylo.TaxonNames(12)[:6], 0.05, rng)
	// Interleave evaluations of a 6-taxon and a 12-taxon tree: every
	// size flip must invalidate, never reuse stale partials.
	for round := 0; round < 10; round++ {
		mutate(small, rng)
		mutate(fx.tree, rng)
		for _, tr := range []*phylo.Tree{small, fx.tree} {
			a, b := inc.LogLikelihood(tr), full.LogLikelihood(tr)
			if a != b {
				t.Fatalf("round %d (%d nodes): incremental %v != full %v",
					round, len(tr.Nodes), a, b)
			}
		}
	}
}

// TestIncrementalUnderBranchOptimization pins the optimizer integration:
// OptimizeBranch probes many lengths on one branch, and the incremental
// engine must track every probe.
func TestIncrementalUnderBranchOptimization(t *testing.T) {
	fx := newFixture(t, 37, phylo.Nucleotide, 4, 12, 300)
	inc, _ := New(fx.data, fx.model, fx.rates)
	ref, _ := phylo.NewLikelihood(fx.data, fx.model, fx.rates)
	tr := fx.tree.Clone()
	rng := sim.NewRNG(8)
	for round := 0; round < 15; round++ {
		mutate(tr, rng)
		var target *phylo.Node
		for target == nil || target.Parent == nil {
			target = tr.Nodes[rng.Intn(len(tr.Nodes))]
		}
		a := inc.OptimizeBranch(tr, target, 8)
		// The optimizer leaves the tree at the best probed length; the
		// reference engine must agree on the final state.
		c := ref.LogLikelihood(tr)
		if math.Abs(a-c) > 1e-9*math.Abs(c) {
			t.Fatalf("round %d: optimized logL %v vs reference %v", round, a, c)
		}
	}
}

// TestPoolScoringDeterministicAcrossWorkers is the parallel-scoring
// acceptance test: for the same population, ScoreAll must return
// bit-identical results for 1, 2, 3 and 4 workers, with engines warm
// or cold. Run under -race this doubles as the data-race stress test
// (same style as internal/forest/race_test.go).
func TestPoolScoringDeterministicAcrossWorkers(t *testing.T) {
	fx := newFixture(t, 51, phylo.Nucleotide, 4, 12, 300)
	rng := sim.NewRNG(9)
	trees := make([]*phylo.Tree, 24)
	for i := range trees {
		trees[i] = fx.tree.Clone()
		for j := 0; j < 1+i%5; j++ {
			mutate(trees[i], rng)
		}
	}
	factory := func() (phylo.Evaluator, error) { return New(fx.data, fx.model, fx.rates) }
	var want []float64
	for workers := 1; workers <= 4; workers++ {
		pool, err := phylo.NewEvaluatorPool(workers, factory)
		if err != nil {
			t.Fatal(err)
		}
		// Two passes: the second hits warm incremental caches, and must
		// still be bit-identical.
		for pass := 0; pass < 2; pass++ {
			got := pool.ScoreAll(trees)
			if want == nil {
				want = got
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("workers=%d pass=%d tree %d: %v != baseline %v",
						workers, pass, i, got[i], want[i])
				}
			}
		}
	}
}

// TestWarmStartPoolSharing pins the warm-start seam: pool workers that
// adopted a warm parent engine's transition cache must return
// bit-identical scores while actually hitting the shared entries, and
// the parent must remain usable concurrently. Under -race this is the
// proof that shared cache entries are safe across engines.
func TestWarmStartPoolSharing(t *testing.T) {
	fx := newFixture(t, 71, phylo.Nucleotide, 4, 12, 300)
	parent, err := New(fx.data, fx.model, fx.rates)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(15)
	trees := make([]*phylo.Tree, 16)
	want := make([]float64, len(trees))
	for i := range trees {
		trees[i] = fx.tree.Clone()
		mutate(trees[i], rng)
		want[i] = parent.LogLikelihood(trees[i])
	}
	pool, err := phylo.NewEvaluatorPool(4, func() (phylo.Evaluator, error) {
		return New(fx.data, fx.model, fx.rates)
	})
	if err != nil {
		t.Fatal(err)
	}
	pool.WarmStart(parent)
	for w := 0; w < pool.Workers(); w++ {
		if st := pool.Evaluator(w).(*Engine).Stats(); st.CacheSize == 0 {
			t.Fatalf("worker %d adopted no cache entries from the warm parent", w)
		}
	}
	// Keep the parent evaluating its own mutating tree while the pool
	// scores concurrently: shared entries are read from five engines at
	// once while the parent keeps inserting fresh ones.
	done := make(chan struct{})
	go func() {
		defer close(done)
		prng := sim.NewRNG(16)
		tr := fx.tree.Clone()
		for i := 0; i < 50; i++ {
			mutate(tr, prng)
			parent.LogLikelihood(tr)
		}
	}()
	for pass := 0; pass < 2; pass++ {
		got := pool.ScoreAll(trees)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("pass %d tree %d: warm-started pool %v != parent %v", pass, i, got[i], want[i])
			}
		}
	}
	<-done
	var hits int
	for w := 0; w < pool.Workers(); w++ {
		hits += pool.Evaluator(w).(*Engine).Stats().CacheHits
	}
	if hits == 0 {
		t.Error("warm-started workers never hit the shared transition cache")
	}
}

// TestSearchParallelDeterministicAcrossWorkers pins the full parallel
// search: same seed, different worker counts, bit-identical best tree
// and work accounting.
func TestSearchParallelDeterministicAcrossWorkers(t *testing.T) {
	fx := newFixture(t, 55, phylo.Nucleotide, 4, 8, 200)
	cfg := phylo.DefaultSearchConfig()
	cfg.SearchReps = 3
	cfg.MaxGenerations = 40
	cfg.StagnationGenerations = 20
	cfg.AttachmentsPerTaxon = 5
	factory := func() (phylo.Evaluator, error) { return New(fx.data, fx.model, fx.rates) }
	var wantLogL, wantWork float64
	var wantNewick string
	for workers := 1; workers <= 3; workers++ {
		pool, err := phylo.NewEvaluatorPool(workers, factory)
		if err != nil {
			t.Fatal(err)
		}
		res, err := phylo.SearchParallel(pool, phylo.TaxonNames(8), cfg, sim.NewRNG(77))
		if err != nil {
			t.Fatal(err)
		}
		if err := res.BestTree.Check(); err != nil {
			t.Fatal(err)
		}
		nwk := res.BestTree.Newick()
		if workers == 1 {
			wantLogL, wantWork, wantNewick = res.BestLogL, res.Work, nwk
			continue
		}
		if res.BestLogL != wantLogL {
			t.Errorf("workers=%d: best logL %v != baseline %v", workers, res.BestLogL, wantLogL)
		}
		if res.Work != wantWork {
			t.Errorf("workers=%d: work %v != baseline %v", workers, res.Work, wantWork)
		}
		if nwk != wantNewick {
			t.Errorf("workers=%d: best tree differs from baseline", workers)
		}
	}
}
