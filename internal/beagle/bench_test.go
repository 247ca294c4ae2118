package beagle

import (
	"fmt"
	"testing"

	"lattice/internal/phylo"
	"lattice/internal/sim"
)

// The three engine micro-benchmarks the ledger cannot localise: its
// search50 and score-aa workloads time whole searches and whole
// generations, these time one evaluation, one full 20-state traversal
// and one population score. `make check` executes each body once.

// bench50 is the 50-taxon GTR+Γ4 nucleotide fixture both share.
func bench50(b *testing.B) *fixture {
	return newFixture(b, 50, phylo.Nucleotide, 4, 50, 1000)
}

// BenchmarkSearchEval50 measures one likelihood evaluation in the GA's
// dominant access pattern — a single branch length changed since the
// previous evaluation — on the full-recompute reference path, the
// beagle backend with incremental reuse disabled, and the incremental
// engine.
func BenchmarkSearchEval50(b *testing.B) {
	fx := bench50(b)
	// A fixed mutation schedule (branch index, jitter factor) shared by
	// every engine, so all variants evaluate identical tree states.
	mrng := sim.NewRNG(77)
	const schedule = 4096
	idx := make([]int, schedule)
	factor := make([]float64, schedule)
	for i := range idx {
		idx[i] = 1 + mrng.Intn(len(fx.tree.Nodes)-1)
		factor[i] = mrng.LogNormal(0, 0.2)
	}
	run := func(b *testing.B, ev phylo.Evaluator) {
		tr := fx.tree.Clone()
		ev.LogLikelihood(tr) // warm buffers and caches
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := tr.Nodes[idx[i%schedule]]
			if n.Parent != nil {
				n.Length *= factor[i%schedule]
			}
			ev.LogLikelihood(tr)
		}
		b.ReportMetric(ev.TotalWork()/float64(b.N), "cells/op")
	}
	b.Run("reference", func(b *testing.B) {
		lk, err := phylo.NewLikelihood(fx.data, fx.model, fx.rates)
		if err != nil {
			b.Fatal(err)
		}
		run(b, lk)
	})
	b.Run("beagle-full", func(b *testing.B) { run(b, newEngine(b, fx, false)) })
	b.Run("beagle-incremental", func(b *testing.B) { run(b, newEngine(b, fx, true)) })
}

// BenchmarkScoreAA50 measures one full (non-incremental) traversal of
// a 50-taxon tree under the 20-state empirical model with +Γ4 — the
// generic kernels and nothing else: the engine is warm, so every
// transition is a cache hit and every buffer comes off the free list.
func BenchmarkScoreAA50(b *testing.B) {
	fx := newFixture(b, 50, phylo.AminoAcid, 4, 50, 500)
	eng := newEngine(b, fx, false)
	eng.LogLikelihood(fx.tree) // warm buffers and caches
	cells0 := eng.TotalWork()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.LogLikelihood(fx.tree)
	}
	cells := (eng.TotalWork() - cells0) / float64(b.N)
	b.ReportMetric(cells, "cells/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/cells, "ns/cell")
}

// BenchmarkParallelScore measures population scoring through an
// EvaluatorPool at several worker counts: 32 perturbed 50-taxon trees
// per op, each with one branch re-jittered between ops — a GA
// generation's access pattern. The pool is warm-started from a parent
// engine (as a search would after building the population), so no
// worker pays the transition-matrix cold start. Scores are
// bit-identical across worker counts; wall-clock scaling comes from
// the per-tree bank budget: each worker's share of the population must
// fit its engine's conditional-likelihood budget for revisits to be
// incremental.
func BenchmarkParallelScore(b *testing.B) {
	fx := bench50(b)
	rng := sim.NewRNG(11)
	base := make([]*phylo.Tree, 32)
	for i := range base {
		base[i] = fx.tree.Clone()
		base[i].PostOrder(func(n *phylo.Node) {
			if n.Parent != nil {
				n.Length *= rng.LogNormal(0, 0.2)
			}
		})
	}
	// Fixed per-(op, tree) mutation schedule so every worker count
	// evaluates identical tree states in the same order.
	mrng := sim.NewRNG(78)
	const schedule = 512
	idx := make([]int, schedule*len(base))
	factor := make([]float64, schedule*len(base))
	for i := range idx {
		idx[i] = 1 + mrng.Intn(len(fx.tree.Nodes)-1)
		factor[i] = mrng.LogNormal(0, 0.2)
	}
	newEngine := func() (phylo.Evaluator, error) { return New(fx.data, fx.model, fx.rates) }
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			// Fresh clones per worker count: identical tree states and
			// fresh bank identities for every variant.
			trees := make([]*phylo.Tree, len(base))
			for i := range trees {
				trees[i] = base[i].Clone()
			}
			parent, err := newEngine()
			if err != nil {
				b.Fatal(err)
			}
			for _, tr := range trees {
				parent.LogLikelihood(tr) // warm the shared transition cache
			}
			pool, err := phylo.NewEvaluatorPool(workers, newEngine)
			if err != nil {
				b.Fatal(err)
			}
			pool.WarmStart(parent)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := (i % schedule) * len(trees)
				for k, tr := range trees {
					n := tr.Nodes[idx[s+k]]
					if n.Parent != nil {
						n.Length *= factor[s+k]
					}
				}
				pool.ScoreAll(trees)
			}
			b.ReportMetric(float64(len(trees)), "trees/op")
		})
	}
}
