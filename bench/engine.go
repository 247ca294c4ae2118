package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"lattice/internal/beagle"
	"lattice/internal/phylo"
	"lattice/internal/sim"
)

const engineTaxa = 50

// engineShapeSeed fixes what sets the size of an engine pass: the
// tree the alignments evolve on and, for search50, the alignment and
// the GA's own seed. A GA search is chaotic in work — from one
// alignment or GA seed to the next its cell updates span a twofold
// range — so the benchmark seed may only change inputs in ways that
// leave the size alone (see each fixture).
const engineShapeSeed = 50

// simulated evolves an alignment on the fixed 50-taxon tree with the
// rng given, shuffles its columns with shuffle when that is non-nil,
// and compiles it to site patterns.
func simulated(e *env, m *phylo.Model, nsites int, rng, shuffle *sim.RNG) (*phylo.PatternData, *phylo.SiteRates, *phylo.Tree, error) {
	rs, err := phylo.NewSiteRates(phylo.RateGamma, 0.6, 0, 4)
	if err != nil {
		return nil, nil, nil, err
	}
	tree := phylo.RandomTree(phylo.TaxonNames(engineTaxa), 0.08, sim.NewRNG(engineShapeSeed))
	al, err := phylo.SimulateAlignment(tree, m, rs, nsites, rng)
	if err != nil {
		return nil, nil, nil, err
	}
	if shuffle != nil {
		perm := shuffle.Perm(al.Length())
		for t, seq := range al.Seqs {
			cols := make([]byte, len(seq))
			for i, j := range perm {
				cols[i] = seq[j]
			}
			al.Seqs[t] = string(cols)
		}
	}
	end := e.tr.span("Alignment.Compile", "phylo.compile_s")
	pd, err := al.Compile()
	end()
	if err != nil {
		return nil, nil, nil, err
	}
	return pd, rs, tree, nil
}

// beagleLayer writes the beagle.* counters of one or more engines.
func beagleLayer(m map[string]float64, stats ...beagle.Stats) {
	var s beagle.Stats
	for _, t := range stats {
		s.PartialsComputed += t.PartialsComputed
		s.PartialsReused += t.PartialsReused
		s.CacheHits += t.CacheHits
		s.CacheMisses += t.CacheMisses
		s.BankHits += t.BankHits
		s.BankMisses += t.BankMisses
		s.PmatRecycled += t.PmatRecycled
		s.Work += t.Work
	}
	m["beagle.cells"] = s.Work
	m["beagle.partials_reused_ratio"] = s.ReuseFraction()
	m["beagle.cache_hit_ratio"] = s.CacheHitRate()
	if n := s.BankHits + s.BankMisses; n > 0 {
		m["beagle.bank_hit_ratio"] = float64(s.BankHits) / float64(n)
	}
	m["beagle.pmat_recycled"] = float64(s.PmatRecycled)
}

// searchRun is the search50 fixture: one GA search on the incremental
// engine, single thread — the program every grid job is.
type searchRun struct {
	tr    *tracer
	pd    *phylo.PatternData
	model *phylo.Model
	rates *phylo.SiteRates
	eng   *beagle.Engine
	cfg   phylo.SearchConfig
	out   *phylo.SearchResult
}

func searchFixture(e *env) (*fixture, error) {
	m, err := phylo.NewGTR([6]float64{1.1, 3.2, 0.8, 1.3, 4.0, 1}, []float64{0.28, 0.22, 0.26, 0.24})
	if err != nil {
		return nil, err
	}
	// Up to the warm-up's 1/20 the sites shrink; below that the
	// generations do too, so the test-size search still searches.
	sites, gens := e.size(1000, 50), 25
	if e.div > 20 {
		gens = e.size(25*20, 3)
	}
	// The benchmark seed permutes the alignment's columns: another
	// input of exactly this size. Pattern order, and with it the order
	// of every floating-point sum, changes; the search's trajectory
	// does not, short of a rounding-level tie.
	pd, rs, _, err := simulated(e, m, sites, sim.NewRNG(engineShapeSeed+1), sim.NewRNG(e.seed))
	if err != nil {
		return nil, err
	}
	eng, err := beagle.New(pd, m, rs)
	if err != nil {
		return nil, err
	}
	cfg := phylo.DefaultSearchConfig()
	cfg.MaxGenerations = gens
	cfg.StagnationGenerations = gens
	cfg.AttachmentsPerTaxon = 4
	cfg.ImprovementEps = 2.0
	r := &searchRun{tr: e.tr, pd: pd, model: m, rates: rs, eng: eng, cfg: cfg}
	return &fixture{run: r.run, collect: r.collect, close: func() {}}, nil
}

func (r *searchRun) run() error {
	end := r.tr.span("phylo.SearchWith", "")
	out, err := phylo.SearchWith(r.eng, phylo.TaxonNames(engineTaxa), r.cfg, sim.NewRNG(engineShapeSeed+2))
	end()
	r.out = out
	return err
}

func (r *searchRun) collect() (*result, error) {
	out := r.out
	newick := out.BestTree.Newick()
	h := sha256.New()
	//lint:allow errdrop -- hash.Hash documents that Write never errors
	fmt.Fprintf(h, "%s\n%016x\n%d\n%d\n", newick, math.Float64bits(out.BestLogL), out.Evaluations, out.Generations)
	res := &result{ops: out.Evaluations, digest: hex.EncodeToString(h.Sum(nil)), layer: map[string]float64{}}
	ref, err := phylo.NewLikelihood(r.pd, r.model, r.rates)
	if err != nil {
		return nil, err
	}
	if want := ref.LogLikelihood(out.BestTree); math.Abs(out.BestLogL-want) > 1e-9*math.Abs(want) {
		res.failf("best lnL %.10f, reference re-evaluation gives %.10f", out.BestLogL, want)
	}
	m := res.layer
	m["phylo.evaluations"] = float64(out.Evaluations)
	m["phylo.generations"] = float64(out.Generations)
	m["phylo.best_lnl"] = out.BestLogL
	m["phylo.pool_workers"] = 1
	beagleLayer(m, r.eng.Stats())
	return res, nil
}

// scoreRun is the score-aa fixture: GA-style generations of full
// (non-incremental) 20-state scoring through a worker pool.
type scoreRun struct {
	tr      *tracer
	workers int
	gens    int
	factory phylo.EvaluatorFactory
	engines []*beagle.Engine
	pool    *phylo.EvaluatorPool
	base    []*phylo.Tree
	// idx and factor are the fixed mutation schedule: generation g
	// rescales branch idx[g*len(base)+k] of tree k.
	idx    []int
	factor []float64
	trees  []*phylo.Tree
	scores [][]float64
}

const scoreTrees = 16

func scoreFixture(e *env) (*fixture, error) {
	m, err := phylo.NewEmpiricalAA()
	if err != nil {
		return nil, err
	}
	sites := 500
	if e.div > 20 {
		sites = e.size(500*20, 40)
	}
	// No search feeds back here, so the benchmark seed draws the whole
	// alignment and the mutation schedule; only the tree's shape, which
	// sets the kernel mix, is fixed.
	rng := sim.NewRNG(e.seed)
	pd, rs, tree, err := simulated(e, m, sites+sites/4, rng, nil)
	if err != nil {
		return nil, err
	}
	// Cost follows distinct site patterns, and how many of them a draw
	// of columns holds varies by a few percent (about three quarters of
	// the columns under this rate heterogeneity): evolve spare columns
	// and keep exactly the number 500 columns typically hold.
	patterns := sites * 3 / 4
	if pd.NumPatterns() < patterns {
		return nil, fmt.Errorf("alignment has %d distinct patterns, want %d", pd.NumPatterns(), patterns)
	}
	pd.States = pd.States[:patterns*pd.NumTaxa]
	pd.Weights = pd.Weights[:patterns]
	pd.NumSites = 0
	for _, w := range pd.Weights {
		pd.NumSites += int(w)
	}
	r := &scoreRun{tr: e.tr, gens: e.size(20, 1), workers: min(runtime.NumCPU(), 4)}
	r.base = make([]*phylo.Tree, scoreTrees)
	for i := range r.base {
		r.base[i] = tree.Clone()
		r.base[i].PostOrder(func(n *phylo.Node) {
			if n.Parent != nil {
				n.Length *= rng.LogNormal(0, 0.2)
			}
		})
	}
	r.idx = make([]int, r.gens*scoreTrees)
	r.factor = make([]float64, len(r.idx))
	for i := range r.idx {
		r.idx[i] = 1 + rng.Intn(len(tree.Nodes)-1)
		r.factor[i] = rng.LogNormal(0, 0.2)
	}
	r.factory = func() (phylo.Evaluator, error) {
		eng, err := beagle.New(pd, m, rs)
		if err != nil {
			return nil, err
		}
		eng.SetIncremental(false)
		r.engines = append(r.engines, eng)
		return eng, nil
	}
	r.pool, err = phylo.NewEvaluatorPool(r.workers, r.factory)
	if err != nil {
		return nil, err
	}
	r.engines = r.engines[:r.workers] // later factory calls build reference engines
	return &fixture{run: r.run, collect: r.collect, probes: r.probes, close: func() {}}, nil
}

// generations replays the mutation schedule on fresh clones of the
// base trees, scoring every generation through pool.
func (r *scoreRun) generations(pool *phylo.EvaluatorPool, tr *tracer) ([]*phylo.Tree, [][]float64) {
	trees := make([]*phylo.Tree, len(r.base))
	for i, t := range r.base {
		trees[i] = t.Clone()
	}
	scores := make([][]float64, r.gens)
	for g := 0; g < r.gens; g++ {
		for k, t := range trees {
			if n := t.Nodes[r.idx[g*len(trees)+k]]; n.Parent != nil {
				n.Length *= r.factor[g*len(trees)+k]
			}
		}
		end := tr.span("EvaluatorPool.ScoreAll", "")
		scores[g] = pool.ScoreAll(trees)
		end()
	}
	return trees, scores
}

func (r *scoreRun) run() error {
	r.trees, r.scores = r.generations(r.pool, r.tr)
	return nil
}

func (r *scoreRun) collect() (*result, error) {
	res := &result{ops: r.gens * scoreTrees, digest: scoreDigest(r.scores), layer: map[string]float64{}}
	// One worker scoring the final generation must reproduce the
	// pool's scores bit for bit; the traced pass checks every
	// generation (see probes).
	one, err := phylo.NewEvaluatorPool(1, r.factory)
	if err != nil {
		return nil, err
	}
	last := r.scores[r.gens-1]
	for i, s := range one.ScoreAll(r.trees) {
		if math.Float64bits(s) != math.Float64bits(last[i]) {
			res.failf("tree %d: pool score %v differs from the 1-worker score %v", i, last[i], s)
		}
	}
	m := res.layer
	m["phylo.evaluations"] = float64(res.ops)
	m["phylo.generations"] = float64(r.gens)
	m["phylo.best_lnl"] = slices.Max(last)
	m["phylo.pool_workers"] = float64(r.pool.Workers())
	stats := make([]beagle.Stats, len(r.engines))
	for i, eng := range r.engines {
		stats[i] = eng.Stats()
	}
	beagleLayer(m, stats...)
	return res, nil
}

// probes reruns every generation on one worker, which both checks
// the whole pass bit for bit and gives the pool's speed-up.
func (r *scoreRun) probes(_ *env, p *pass) error {
	one, err := phylo.NewEvaluatorPool(1, r.factory)
	if err != nil {
		return err
	}
	t0 := time.Now()
	_, scores := r.generations(one, nil)
	serial := time.Since(t0).Seconds()
	if d := scoreDigest(scores); d != p.Digest {
		p.failf("1-worker scores digest %.12s differs from the pool's %.12s", d, p.Digest)
	}
	p.Layer["phylo.pool_speedup"] = serial / p.E2E["wall_s"]
	return nil
}

// scoreDigest hashes every score's bits in generation and tree order.
func scoreDigest(scores [][]float64) string {
	h := sha256.New()
	for _, gen := range scores {
		for _, s := range gen {
			//lint:allow errdrop -- hash.Hash documents that Write never errors
			fmt.Fprintf(h, "%016x\n", math.Float64bits(s))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
