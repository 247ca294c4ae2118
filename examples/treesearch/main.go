// Treesearch: the phylogenetics engine on its own — simulate sequence
// data on a known tree, infer the tree back with the GARLI-style
// genetic-algorithm search, assess confidence with bootstrapping, and
// compare against the truth. This is the computation every grid job
// performs.
package main

import (
	"bytes"
	"fmt"
	"log"

	"lattice/internal/beagle"
	"lattice/internal/phylo"
	"lattice/internal/sim"
)

func main() {
	rng := sim.NewRNG(2024)

	// The true evolutionary history: 12 taxa, HKY85+Γ.
	model, err := phylo.NewHKY85(2.5, []float64{0.3, 0.2, 0.2, 0.3})
	if err != nil {
		log.Fatal(err)
	}
	rates, err := phylo.NewSiteRates(phylo.RateGamma, 0.6, 0, 4)
	if err != nil {
		log.Fatal(err)
	}
	truth := phylo.RandomTree(phylo.TaxonNames(12), 0.12, rng)
	fmt.Println("true tree:", truth.Newick())

	// Evolve 1500 sites of sequence data down the tree.
	al, err := phylo.SimulateAlignment(truth, model, rates, 1500, rng)
	if err != nil {
		log.Fatal(err)
	}
	pd, err := al.Compile()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d × %d alignment (%d unique patterns)\n",
		al.NumTaxa(), al.Length(), pd.NumPatterns())

	// Infer with two search replicates from stepwise starting trees.
	cfg := phylo.DefaultSearchConfig()
	cfg.SearchReps = 2
	lk := must1(phylo.NewLikelihood(pd, model, rates))
	res, err := phylo.SearchWith(lk, al.Names, cfg, rng.Stream("search"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inferred tree: lnL %.2f (truth tree scores %.2f)\n",
		res.BestLogL, lk.LogLikelihood(truth))
	fmt.Printf("Robinson–Foulds distance to truth: %d (0 = identical topology)\n",
		res.BestTree.RFDistance(truth))

	// Bootstrap support for the inferred clades.
	const reps = 20
	var btrees []*phylo.Tree
	fast := cfg
	fast.SearchReps = 1
	fast.MaxGenerations = 200
	for i := 0; i < reps; i++ {
		bs := pd.Bootstrap(rng.Float64)
		blk := must1(phylo.NewLikelihood(bs, model, rates))
		r, err := phylo.SearchWith(blk, al.Names, fast, rng.Stream(fmt.Sprintf("bs%d", i)))
		if err != nil {
			log.Fatal(err)
		}
		btrees = append(btrees, r.BestTree)
	}
	sup := phylo.NewSplitSupport(btrees)
	cons, err := sup.MajorityRuleConsensus(al.Names)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("majority-rule consensus of %d bootstrap trees:\n  %s\n", reps, cons.Newick())
	strong := 0
	for bp := range res.BestTree.Bipartitions() {
		if sup.Support(bp) >= 0.7 {
			strong++
		}
	}
	fmt.Printf("%d clades of the best tree have ≥70%% bootstrap support\n", strong)

	// Partitioned analysis: gene A under the HKY85+Γ model, gene B
	// under JC69, sharing one tree — GARLI's partitioned models.
	mB := must1(phylo.NewJC69())
	rB := must1(phylo.NewSiteRates(phylo.RateHomogeneous, 0, 0, 1))
	geneB, err := phylo.SimulateAlignment(truth, mB, rB, 700, rng)
	if err != nil {
		log.Fatal(err)
	}
	pdB := must1(geneB.Compile())
	parts := []phylo.Partition{
		{Name: "geneA", Data: pd, Model: model, Rates: rates},
		{Name: "geneB", Data: pdB, Model: mB, Rates: rB},
	}
	pcfg := cfg
	pcfg.SearchReps = 1
	plk := must1(phylo.NewPartitionedLikelihood(parts))
	pres, err := phylo.SearchWith(plk, al.Names, pcfg, rng.Stream("part"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partitioned (2-gene) search: joint lnL %.2f, RF to truth %d\n",
		pres.BestLogL, pres.BestTree.RFDistance(truth))

	// The optimized BEAGLE-style backend drives the same search. One
	// engine serves all replicates — buffers, the transition-matrix
	// cache, and incrementally cached partials persist across them
	// instead of being reallocated per replicate.
	eng, err := beagle.New(pd, model, rates)
	if err != nil {
		log.Fatal(err)
	}
	bcfg := cfg // SearchReps = 2: the second replicate reuses the warm engine
	bres, err := phylo.SearchWith(eng, al.Names, bcfg, rng.Stream("beagle"))
	if err != nil {
		log.Fatal(err)
	}
	st := eng.Stats()
	fmt.Printf("optimized-backend search (%d replicates, one engine): lnL %.2f\n",
		bcfg.SearchReps, bres.BestLogL)
	fmt.Printf("  %d evaluations, %.3g cell updates\n", st.Evaluations, st.Work)
	fmt.Printf("  partials: %d computed, %d reused incrementally (%.0f%% of pruning skipped)\n",
		st.PartialsComputed, st.PartialsReused, 100*st.ReuseFraction())
	fmt.Printf("  transition cache: %.0f%% hits (%d entries resident, %d evictions, %d buffers recycled)\n",
		100*st.CacheHitRate(), st.CacheSize, st.CacheEvictions, st.PmatRecycled)
	fmt.Printf("  pattern compression: %.2f sites/pattern (%d sites → %d patterns)\n",
		st.PatternCompression(), st.NumSites, st.NumPatterns)
	tipPct := 0.0
	if tot := st.TipCells + st.InternalCells; tot > 0 {
		tipPct = 100 * float64(st.TipCells) / float64(tot)
	}
	fmt.Printf("  kernel cells: %.0f%% tip-specialized; partials banks: %d hits, %d recycled buffers\n",
		tipPct, st.BankHits, st.BufRecycled)

	// The same search fanned out over a pool of engines: bit-identical
	// to SearchWith on one engine for the same seed, whatever the
	// worker count.
	pool, err := phylo.NewEvaluatorPool(3, func() (phylo.Evaluator, error) {
		return beagle.New(pd, model, rates)
	})
	if err != nil {
		log.Fatal(err)
	}
	pres2, err := phylo.SearchParallel(pool, al.Names, bcfg, rng.Stream("pool"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel search (%d workers): lnL %.2f, %.3g cell updates\n",
		pool.Workers(), pres2.BestLogL, pres2.Work)

	// Checkpointing: run a resumable search in two halves, as the
	// BOINC build of GARLI does on volunteer machines — the second half
	// by a fresh runner that knows only what the checkpoint holds. A
	// Runner is the replicate SearchWith runs, so the resumed search
	// ends with the same final branch-length polish.
	runner, err := phylo.NewRunner(lk, al.Names, fast, 99)
	if err != nil {
		log.Fatal(err)
	}
	runner.Step(50)
	fmt.Printf("checkpoint at generation %d (progress %.0f%%)\n",
		runner.Generation(), 100*runner.Progress())
	var checkpoint bytes.Buffer
	if err := runner.Save(&checkpoint); err != nil {
		log.Fatal(err)
	}
	runner, err = phylo.LoadRunner(&checkpoint, lk, al.Names, fast)
	if err != nil {
		log.Fatal(err)
	}
	for !runner.Step(100) {
	}
	_, logL := runner.Best()
	fmt.Printf("resumed search finished: lnL %.2f\n", logL)
}

// must1 unwraps a (value, error) pair, dying on error — example-grade
// error handling that still refuses to continue past a failure.
func must1[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}
