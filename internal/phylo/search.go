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

// validate checks the config, and that names label every taxon of
// ev's data.
func (c *SearchConfig) validate(ev Evaluator, names []string) error {
	if n := ev.NumTaxa(); len(names) != n {
		return fmt.Errorf("phylo: %d taxon names for %d-taxon data", len(names), n)
	}
	if c.SearchReps < 1 {
		return fmt.Errorf("phylo: SearchReps must be >= 1, got %d", c.SearchReps)
	}
	if c.PopulationSize < 1 {
		return fmt.Errorf("phylo: PopulationSize must be >= 1, got %d", c.PopulationSize)
	}
	if c.MaxGenerations < 1 {
		return fmt.Errorf("phylo: MaxGenerations must be >= 1, got %d", c.MaxGenerations)
	}
	switch c.StartingTree {
	case StartRandom:
	case StartStepwise:
		if c.AttachmentsPerTaxon < 1 {
			return fmt.Errorf("phylo: AttachmentsPerTaxon must be >= 1 for stepwise addition")
		}
	case StartUser:
		if c.UserTree == nil {
			return fmt.Errorf("phylo: StartUser requires a UserTree")
		}
		if err := placesEveryTaxon(c.UserTree, len(names)); err != nil {
			return fmt.Errorf("phylo: starting tree: %w", err)
		}
	default:
		return fmt.Errorf("phylo: unknown starting tree kind %v", c.StartingTree)
	}
	return nil
}

// placesEveryTaxon reports an error unless each of the data's n taxa is
// a leaf of t exactly once and every internal node of t has two or
// more children.
func placesEveryTaxon(t *Tree, n int) error {
	placed := make([]bool, n)
	leaves := 0
	var err error
	t.PostOrder(func(nd *Node) {
		switch {
		case err != nil:
		case len(nd.Children) == 1:
			err = fmt.Errorf("phylo: tree node %d has one child", nd.ID)
		case nd.IsLeaf() && (nd.Taxon < 0 || nd.Taxon >= n || placed[nd.Taxon]):
			err = fmt.Errorf("phylo: tree places taxon %d (%q) outside the data or twice", nd.Taxon, nd.Name)
		case nd.IsLeaf():
			placed[nd.Taxon] = true
			leaves++
		}
	})
	if err == nil && leaves != n {
		err = fmt.Errorf("phylo: tree places %d of the %d taxa", leaves, n)
	}
	return err
}

// SearchResult reports the outcome of a search.
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

// SearchWith runs the GA search on one evaluator — a plain Likelihood,
// a PartitionedLikelihood, or an optimized backend. It is SearchParallel
// over a one-engine pool, so a seed gives the same tree through either
// entry point.
func SearchWith(ev Evaluator, names []string, cfg SearchConfig, rng *sim.RNG) (*SearchResult, error) {
	return SearchParallel(onePool(ev), names, cfg, rng)
}

// SearchParallel runs the GA search across a pool of evaluators and
// returns the best tree across replicates. One rule seeds it: a lone
// replicate searches on the caller's stream, and several replicates
// each get rng.Stream("rep<i>"), derived up front in replicate order.
// With one replicate the pool fans out population and stepwise-addition
// candidate scoring inside the replicate; with several, each worker
// runs whole replicates on its own engine. Either way the trees and
// their scores are bit-identical for a fixed seed at any worker count:
// each engine is confined to one goroutine, scores are independent of
// engine cache state, and the merge breaks ties by replicate index.
// Work is what the pool's engines really spent, so a lone replicate
// fanned out over colder engines can count more cell updates.
func SearchParallel(pool *EvaluatorPool, names []string, cfg SearchConfig, rng *sim.RNG) (*SearchResult, error) {
	if pool == nil || pool.Workers() < 1 {
		return nil, fmt.Errorf("phylo: SearchParallel needs a non-empty evaluator pool")
	}
	if err := cfg.validate(pool.Evaluator(0), names); err != nil {
		return nil, err
	}
	reps := make([]*Runner, cfg.SearchReps)
	if cfg.SearchReps == 1 {
		reps[0] = newRunner(pool, names, cfg, rng)
		reps[0].Step(cfg.MaxGenerations)
	} else {
		// Derive every stream serially, before any goroutine starts:
		// sim.RNG stream derivation consumes parent draws, so the order
		// must not depend on scheduling.
		streams := make([]*sim.RNG, cfg.SearchReps)
		for i := range streams {
			streams[i] = rng.Stream(fmt.Sprintf("rep%d", i))
		}
		workers := min(pool.Workers(), cfg.SearchReps)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(one *EvaluatorPool) {
				defer wg.Done()
				for {
					rep := int(next.Add(1)) - 1
					if rep >= cfg.SearchReps {
						return
					}
					r := newRunner(one, names, cfg, streams[rep])
					r.Step(cfg.MaxGenerations)
					reps[rep] = r
				}
			}(onePool(pool.Evaluator(w)))
		}
		wg.Wait()
	}
	// Merge in replicate-index order: deterministic tie-breaks.
	res := &SearchResult{BestLogL: negInf, Replicates: make([]ReplicateResult, 0, cfg.SearchReps)}
	for _, r := range reps {
		tree, logL := r.Best()
		res.Replicates = append(res.Replicates, ReplicateResult{Tree: tree, LogL: logL, Generations: r.gen})
		res.Generations += r.gen
		res.Evaluations += r.evals
		if logL > res.BestLogL {
			res.BestLogL = logL
			res.BestTree = tree
		}
	}
	res.Work = pool.TotalWork()
	return res, nil
}

var negInf = math.Inf(-1)

// newRunner builds one replicate's starting population on rng. Trees
// are built first (consuming the RNG in the same order as the original
// serial loop — evaluations draw no randomness) and then scored as a
// batch, so the population can be fanned out across the pool.
func newRunner(pool *EvaluatorPool, names []string, cfg SearchConfig, rng *sim.RNG) *Runner {
	start := startingTree(pool, names, cfg, rng)
	r := &Runner{pool: pool, cfg: cfg, rng: rng}
	r.pop = make([]individual, cfg.PopulationSize)
	trees := make([]*Tree, cfg.PopulationSize)
	for i := range trees {
		t := start.Clone()
		if i > 0 {
			// Diversify the initial population with a branch jiggle.
			perturbBranches(t, rng)
		}
		trees[i] = t
	}
	scores := pool.ScoreAll(trees)
	r.evals += len(trees)
	for i := range r.pop {
		r.pop[i] = individual{tree: trees[i], logL: scores[i]}
	}
	sortPop(r.pop)
	r.best = r.pop[0].logL
	return r
}

// terminated reports whether the GA has met a termination rule.
func (r *Runner) terminated() bool {
	return r.gen >= r.cfg.MaxGenerations || r.stagnant >= r.cfg.StagnationGenerations
}

// step runs a single GA generation.
func (r *Runner) step() {
	cfg, rng := r.cfg, r.rng
	weights := []float64{nniWeight, sprWeight, brlenWeight}
	parent := r.pop[selectParent(len(r.pop), rng)]
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
		logL = OptimizeBranch(r.pool.Evaluator(0), child, target, cfg.BrlenOptIterations)
		r.evals += cfg.BrlenOptIterations + 8
	} else {
		logL = r.pool.Evaluator(0).LogLikelihood(child)
		r.evals++
	}
	worst := len(r.pop) - 1
	if logL > r.pop[worst].logL {
		r.pop[worst] = individual{tree: child, logL: logL}
		sortPop(r.pop)
	}
	if r.pop[0].logL > r.best+cfg.ImprovementEps {
		r.best = r.pop[0].logL
		r.stagnant = 0
	} else {
		r.stagnant++
	}
	r.gen++
}

// finalPolish runs GARLI's terminal optimization phase: full
// branch-length optimization sweeps over the best tree until the gain
// of a sweep falls below ImprovementEps. It ends the replicate.
func (r *Runner) finalPolish() {
	ev := r.pool.Evaluator(0)
	best := r.pop[0].tree
	logL := r.pop[0].logL
	iters := r.cfg.BrlenOptIterations
	if iters < 6 {
		iters = 6
	}
	for sweep := 0; sweep < 8; sweep++ {
		before := logL
		best.PostOrder(func(n *Node) {
			if n.Parent != nil {
				logL = OptimizeBranch(ev, best, n, iters)
				r.evals += iters + 8
			}
		})
		if logL-before < r.cfg.ImprovementEps {
			break
		}
	}
	r.pop[0].logL = logL
	r.polished = true
}

// startingTree builds the replicate's initial tree per config.
func startingTree(pool *EvaluatorPool, names []string, cfg SearchConfig, rng *sim.RNG) *Tree {
	switch cfg.StartingTree {
	case StartUser:
		return cfg.UserTree.Clone()
	case StartStepwise:
		return stepwiseAdditionTree(pool, names, cfg, rng)
	default:
		return RandomTree(names, meanBranchLength, rng)
	}
}

// stepwiseAdditionTree grows a tree taxon by taxon; each new taxon is
// tried on AttachmentsPerTaxon randomly chosen branches (or all, if
// fewer exist) and kept at the most likely position. The work this
// burns is exactly why attachmentspertaxon appears among the paper's
// runtime predictors.
func stepwiseAdditionTree(pool *EvaluatorPool, names []string, cfg SearchConfig, rng *sim.RNG) *Tree {
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
		scores := pool.ScoreAll(cands)
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
