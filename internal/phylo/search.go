package phylo

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"lattice/internal/sim"
)

// SearchConfig holds the genetic-algorithm settings of a GARLI-style
// maximum-likelihood tree search. The fields marked (predictor) are
// among the nine variables of the paper's runtime model.
type SearchConfig struct {
	// SearchReps is the number of independent search replicates; the
	// best tree across replicates is returned. (predictor)
	SearchReps int
	// StartingTree selects random, stepwise-addition, or user
	// starting trees. (predictor)
	StartingTree StartingTreeKind
	// UserTree is the starting tree when StartingTree == StartUser.
	UserTree *Tree
	// AttachmentsPerTaxon is the number of candidate attachment
	// branches evaluated per taxon during stepwise addition; GARLI's
	// attachmentspertaxon setting. (predictor)
	AttachmentsPerTaxon int
	// PopulationSize is the number of individuals in the GA
	// population (GARLI default 4).
	PopulationSize int
	// MaxGenerations bounds each replicate.
	MaxGenerations int
	// StagnationGenerations terminates a replicate after this many
	// generations without an improvement larger than ImprovementEps
	// (GARLI's genthreshfortopoterm).
	StagnationGenerations int
	// ImprovementEps is the log-likelihood gain regarded as a real
	// improvement (GARLI's scorethreshforterm).
	ImprovementEps float64
	// BrlenOptIterations is the golden-section refinement budget
	// applied to mutated branches.
	BrlenOptIterations int
}

// GARLI's stock mutation settings, scaled to this engine.
const (
	// nniWeight, sprWeight and brlenWeight are the relative
	// probabilities of the three mutation categories.
	nniWeight, sprWeight, brlenWeight = 0.5, 0.3, 0.2
	// sprRadius limits regraft distance (GARLI's limsprrange).
	sprRadius = 6
	// meanBranchLength seeds starting-tree branch lengths.
	meanBranchLength = 0.05
)

// DefaultSearchConfig mirrors GARLI's stock settings scaled to this
// engine.
func DefaultSearchConfig() SearchConfig {
	return SearchConfig{
		SearchReps:            1,
		StartingTree:          StartStepwise,
		AttachmentsPerTaxon:   25,
		PopulationSize:        4,
		MaxGenerations:        500,
		StagnationGenerations: 60,
		ImprovementEps:        0.01,
		BrlenOptIterations:    8,
	}
}

func (c *SearchConfig) validate() error {
	if c.SearchReps < 1 {
		return fmt.Errorf("phylo: SearchReps must be >= 1, got %d", c.SearchReps)
	}
	if c.PopulationSize < 1 {
		return fmt.Errorf("phylo: PopulationSize must be >= 1, got %d", c.PopulationSize)
	}
	if c.MaxGenerations < 1 {
		return fmt.Errorf("phylo: MaxGenerations must be >= 1, got %d", c.MaxGenerations)
	}
	if c.StartingTree == StartUser && c.UserTree == nil {
		return fmt.Errorf("phylo: StartUser requires a UserTree")
	}
	if c.StartingTree == StartStepwise && c.AttachmentsPerTaxon < 1 {
		return fmt.Errorf("phylo: AttachmentsPerTaxon must be >= 1 for stepwise addition")
	}
	return nil
}

// SearchResult reports the outcome of a Search.
type SearchResult struct {
	BestTree    *Tree
	BestLogL    float64
	Generations int     // total generations across replicates
	Evaluations int     // likelihood evaluations performed
	Work        float64 // total cost in cell updates
	Replicates  []ReplicateResult
}

// ReplicateResult is the outcome of one search replicate.
type ReplicateResult struct {
	Tree        *Tree
	LogL        float64
	Generations int
}

type individual struct {
	tree *Tree
	logL float64
}

// Search runs a GARLI-style genetic-algorithm ML search and returns
// the best tree found. It is deterministic for a given RNG seed.
func Search(data *PatternData, model *Model, rates *SiteRates, names []string, cfg SearchConfig, rng *sim.RNG) (*SearchResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(names) != data.NumTaxa {
		return nil, fmt.Errorf("phylo: %d taxon names for %d-taxon data", len(names), data.NumTaxa)
	}
	lk, err := NewLikelihood(data, model, rates)
	if err != nil {
		return nil, err
	}
	return SearchWith(lk, names, cfg, rng)
}

// SearchWith runs the GA search on any Evaluator — a plain Likelihood,
// a PartitionedLikelihood, or an optimized backend.
func SearchWith(ev Evaluator, names []string, cfg SearchConfig, rng *sim.RNG) (*SearchResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	res := &SearchResult{BestLogL: negInf}
	for rep := 0; rep < cfg.SearchReps; rep++ {
		rr, evals, err := searchReplicate(ev, nil, names, cfg, rng)
		if err != nil {
			return nil, err
		}
		res.Replicates = append(res.Replicates, *rr)
		res.Generations += rr.Generations
		res.Evaluations += evals
		if rr.LogL > res.BestLogL {
			res.BestLogL = rr.LogL
			res.BestTree = rr.Tree
		}
	}
	res.Work = ev.TotalWork()
	return res, nil
}

// SearchPartitioned runs the GA search over several partitions sharing
// one topology (GARLI's partitioned models).
func SearchPartitioned(parts []Partition, names []string, cfg SearchConfig, rng *sim.RNG) (*SearchResult, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("phylo: no partitions")
	}
	if len(names) != parts[0].Data.NumTaxa {
		return nil, fmt.Errorf("phylo: %d taxon names for %d-taxon data", len(names), parts[0].Data.NumTaxa)
	}
	pl, err := NewPartitionedLikelihood(parts)
	if err != nil {
		return nil, err
	}
	return SearchWith(pl, names, cfg, rng)
}

// SearchParallel runs the GA search across a pool of evaluators. With
// one replicate the pool fans out population and stepwise-addition
// candidate scoring inside the replicate; with several replicates each
// worker runs whole replicates on its own engine. Either way the
// result is bit-identical for a fixed seed regardless of worker count:
// every replicate draws from its own RNG stream derived up front, each
// engine is confined to one goroutine, scores are independent of
// engine cache state, and ties are broken by replicate index exactly
// as the serial loop does.
//
// Note SearchParallel's replicate RNG streams differ from SearchWith's
// sequential draws, so the two return different (equally valid) search
// trajectories; determinism guarantees hold within each entry point.
func SearchParallel(pool *EvaluatorPool, names []string, cfg SearchConfig, rng *sim.RNG) (*SearchResult, error) {
	if pool == nil || pool.Workers() < 1 {
		return nil, fmt.Errorf("phylo: SearchParallel needs a non-empty evaluator pool")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Derive one independent stream per replicate serially, before any
	// goroutine starts: sim.RNG stream derivation consumes parent
	// draws, so the order must not depend on scheduling.
	streams := make([]*sim.RNG, cfg.SearchReps)
	for i := range streams {
		streams[i] = rng.Stream(fmt.Sprintf("rep%d", i))
	}
	res := &SearchResult{BestLogL: negInf}
	if cfg.SearchReps == 1 {
		rr, evals, err := searchReplicate(pool.Evaluator(0), pool, names, cfg, streams[0])
		if err != nil {
			return nil, err
		}
		res.Replicates = []ReplicateResult{*rr}
		res.Generations = rr.Generations
		res.Evaluations = evals
		res.BestLogL = rr.LogL
		res.BestTree = rr.Tree
		res.Work = pool.TotalWork()
		return res, nil
	}
	type repOut struct {
		rr    *ReplicateResult
		evals int
		err   error
	}
	outs := make([]repOut, cfg.SearchReps)
	workers := pool.Workers()
	if workers > cfg.SearchReps {
		workers = cfg.SearchReps
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(ev Evaluator) {
			defer wg.Done()
			for {
				rep := int(next.Add(1)) - 1
				if rep >= cfg.SearchReps {
					return
				}
				rr, evals, err := searchReplicate(ev, nil, names, cfg, streams[rep])
				outs[rep] = repOut{rr: rr, evals: evals, err: err}
			}
		}(pool.Evaluator(w))
	}
	wg.Wait()
	// Merge in replicate-index order: deterministic tie-breaks and a
	// deterministic first error.
	for rep := 0; rep < cfg.SearchReps; rep++ {
		if outs[rep].err != nil {
			return nil, outs[rep].err
		}
		rr := outs[rep].rr
		res.Replicates = append(res.Replicates, *rr)
		res.Generations += rr.Generations
		res.Evaluations += outs[rep].evals
		if rr.LogL > res.BestLogL {
			res.BestLogL = rr.LogL
			res.BestTree = rr.Tree
		}
	}
	res.Work = pool.TotalWork()
	return res, nil
}

var negInf = math.Inf(-1)

// gaState is the mutable state of one GA search replicate; it is the
// unit that checkpointing (see Runner in checkpoint.go) snapshots.
type gaState struct {
	lk       Evaluator
	pool     *EvaluatorPool // optional: parallel batch scoring
	cfg      SearchConfig
	pop      []individual
	gen      int
	stagnant int
	best     float64
	evals    int
}

// scoreTrees evaluates a batch of trees, through the pool when one is
// available and the batch is worth fanning out. The serial and pooled
// paths return bit-identical scores: an engine recomputes anything its
// cache cannot prove current, and reuse is bit-identical to
// recomputation, so a tree's score never depends on which engine (or
// how warm an engine) evaluated it.
func scoreTrees(ev Evaluator, pool *EvaluatorPool, trees []*Tree) []float64 {
	if pool != nil && pool.Workers() > 1 && len(trees) > 1 {
		return pool.ScoreAll(trees)
	}
	out := make([]float64, len(trees))
	for i, t := range trees {
		out[i] = ev.LogLikelihood(t)
	}
	return out
}

// newGAState builds the starting population for one replicate. Trees
// are built first (consuming the RNG in the same order as the original
// serial loop — evaluations draw no randomness) and then scored as a
// batch, so the population can be fanned out across a pool.
func newGAState(lk Evaluator, pool *EvaluatorPool, names []string, cfg SearchConfig, rng *sim.RNG) (*gaState, error) {
	start, err := startingTree(lk, pool, names, cfg, rng)
	if err != nil {
		return nil, err
	}
	st := &gaState{lk: lk, pool: pool, cfg: cfg}
	st.pop = make([]individual, cfg.PopulationSize)
	trees := make([]*Tree, cfg.PopulationSize)
	for i := range trees {
		t := start.Clone()
		if i > 0 {
			// Diversify the initial population with a branch jiggle.
			perturbBranches(t, rng)
		}
		trees[i] = t
	}
	scores := scoreTrees(lk, pool, trees)
	st.evals += len(trees)
	for i := range st.pop {
		st.pop[i] = individual{tree: trees[i], logL: scores[i]}
	}
	sortPop(st.pop)
	st.best = st.pop[0].logL
	return st, nil
}

// done reports whether the replicate has terminated.
func (st *gaState) done() bool {
	return st.gen >= st.cfg.MaxGenerations || st.stagnant >= st.cfg.StagnationGenerations
}

// step runs a single GA generation.
func (st *gaState) step(rng *sim.RNG) {
	cfg := st.cfg
	weights := []float64{nniWeight, sprWeight, brlenWeight}
	parent := st.pop[selectParent(len(st.pop), rng)]
	child := parent.tree.Clone()
	var touched *Node
	switch rng.Choice(weights) {
	case 0:
		touched = child.NNI(rng)
	case 1:
		touched = child.SPR(sprRadius, rng)
	default:
		perturbBranches(child, rng)
	}
	var logL float64
	if cfg.BrlenOptIterations > 0 {
		// Refine the branch the move disturbed (or a random internal
		// edge for pure branch-length mutations); each golden-section
		// step is one likelihood evaluation.
		target := touched
		if target == nil || target.Parent == nil {
			edges := child.InternalEdges()
			if len(edges) > 0 {
				target = edges[rng.Intn(len(edges))]
			} else {
				target = child.Root.Children[0]
			}
		}
		logL = st.lk.OptimizeBranch(child, target, cfg.BrlenOptIterations)
		st.evals += cfg.BrlenOptIterations + 8
	} else {
		logL = st.lk.LogLikelihood(child)
		st.evals++
	}
	worst := len(st.pop) - 1
	if logL > st.pop[worst].logL {
		st.pop[worst] = individual{tree: child, logL: logL}
		sortPop(st.pop)
	}
	if st.pop[0].logL > st.best+cfg.ImprovementEps {
		st.best = st.pop[0].logL
		st.stagnant = 0
	} else {
		st.stagnant++
	}
	st.gen++
}

func searchReplicate(lk Evaluator, pool *EvaluatorPool, names []string, cfg SearchConfig, rng *sim.RNG) (*ReplicateResult, int, error) {
	st, err := newGAState(lk, pool, names, cfg, rng)
	if err != nil {
		return nil, 0, err
	}
	for !st.done() {
		st.step(rng)
	}
	logL := st.finalPolish()
	return &ReplicateResult{Tree: st.pop[0].tree, LogL: logL, Generations: st.gen}, st.evals, nil
}

// finalPolish runs GARLI's terminal optimization phase: full
// branch-length optimization sweeps over the best tree until the gain
// of a sweep falls below ImprovementEps.
func (st *gaState) finalPolish() float64 {
	best := st.pop[0].tree
	logL := st.pop[0].logL
	iters := st.cfg.BrlenOptIterations
	if iters < 6 {
		iters = 6
	}
	for sweep := 0; sweep < 8; sweep++ {
		before := logL
		best.PostOrder(func(n *Node) {
			if n.Parent != nil {
				logL = st.lk.OptimizeBranch(best, n, iters)
				st.evals += iters + 8
			}
		})
		if logL-before < st.cfg.ImprovementEps {
			break
		}
	}
	st.pop[0].logL = logL
	return logL
}

// startingTree builds the replicate's initial tree per config.
func startingTree(lk Evaluator, pool *EvaluatorPool, names []string, cfg SearchConfig, rng *sim.RNG) (*Tree, error) {
	switch cfg.StartingTree {
	case StartRandom:
		return RandomTree(names, meanBranchLength, rng), nil
	case StartUser:
		return cfg.UserTree.Clone(), nil
	case StartStepwise:
		return stepwiseAdditionTree(lk, pool, names, cfg, rng), nil
	default:
		return nil, fmt.Errorf("phylo: unknown starting tree kind %v", cfg.StartingTree)
	}
}

// stepwiseAdditionTree grows a tree taxon by taxon; each new taxon is
// tried on AttachmentsPerTaxon randomly chosen branches (or all, if
// fewer exist) and kept at the most likely position. The work this
// burns is exactly why attachmentspertaxon appears among the paper's
// runtime predictors.
func stepwiseAdditionTree(lk Evaluator, pool *EvaluatorPool, names []string, cfg SearchConfig, rng *sim.RNG) *Tree {
	order := rng.Perm(len(names))
	t := &Tree{}
	root := t.newNode()
	t.Root = root
	for i := 0; i < 3; i++ {
		leaf := t.newNode()
		leaf.Taxon = order[i]
		leaf.Name = names[order[i]]
		leaf.Length = rng.Exp(meanBranchLength)
		leaf.Parent = root
		root.Children = append(root.Children, leaf)
	}
	t.reindex()
	// Sub-alignment likelihood for partial trees still uses the full
	// pattern data: absent taxa simply do not appear in the tree, and
	// the pruning pass only visits nodes in the tree, so this is
	// equivalent to marginalizing over them for ranking purposes.
	for i := 3; i < len(order); i++ {
		taxon := order[i]
		var edges []*Node
		t.PostOrder(func(n *Node) {
			if n.Parent != nil {
				edges = append(edges, n)
			}
		})
		tries := cfg.AttachmentsPerTaxon
		if tries > len(edges) {
			tries = len(edges)
		}
		perm := rng.Perm(len(edges))
		// Build every candidate placement, then score the batch —
		// possibly in parallel. The lowest-index strictly-greater
		// argmax reproduces the original serial loop's first-wins
		// tie-break exactly.
		cands := make([]*Tree, tries)
		for k := 0; k < tries; k++ {
			cand := t.Clone()
			leaf := cand.newNode()
			leaf.Taxon = taxon
			leaf.Name = names[taxon]
			leaf.Length = meanBranchLength
			cand.attachAt(leaf, cand.Nodes[edges[perm[k]].ID], leaf.Length)
			cand.reindex()
			cands[k] = cand
		}
		scores := scoreTrees(lk, pool, cands)
		bestLogL := negInf
		bestEdge := -1
		for k := 0; k < tries; k++ {
			if scores[k] > bestLogL {
				bestLogL = scores[k]
				bestEdge = perm[k]
			}
		}
		leaf := t.newNode()
		leaf.Taxon = taxon
		leaf.Name = names[taxon]
		leaf.Length = meanBranchLength
		t.attachAt(leaf, edges[bestEdge], leaf.Length)
		t.reindex()
	}
	return t
}

// perturbBranches multiplies every branch length by a log-normal
// jitter.
func perturbBranches(t *Tree, rng *sim.RNG) {
	t.PostOrder(func(n *Node) {
		if n.Parent != nil {
			n.Length *= rng.LogNormal(0, 0.2)
			if n.Length < 1e-8 {
				n.Length = 1e-8
			}
		}
	})
}

// selectParent picks a population index with rank-proportional bias
// toward fitter (lower-index) individuals.
func selectParent(n int, rng *sim.RNG) int {
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(n - i)
	}
	return rng.Choice(w)
}

func sortPop(pop []individual) {
	sort.SliceStable(pop, func(i, j int) bool { return pop[i].logL > pop[j].logL })
}
