package phylo

import (
	"fmt"
	"sync"
)

// Evaluator abstracts a tree log-likelihood engine: the single-model
// Likelihood, PartitionedLikelihood, and optimized backends
// (internal/beagle) all satisfy it, so the GA search runs unchanged on
// any of them.
type Evaluator interface {
	// LogLikelihood evaluates the data on tree t.
	LogLikelihood(t *Tree) float64
	// OptimizeBranch refines the branch above n and returns the
	// achieved log-likelihood.
	OptimizeBranch(t *Tree, n *Node, iterations int) float64
	// TotalWork reports the cumulative evaluation cost in cell
	// updates.
	TotalWork() float64
}

// IncrementalEvaluator is an Evaluator that caches per-node state
// between evaluations (internal/beagle's incremental re-evaluation).
// Such caches are self-validating against tree mutations; InvalidateAll
// is the explicit escape hatch for anything the engine cannot observe —
// swapping the underlying data or re-parameterizing the model in place.
type IncrementalEvaluator interface {
	Evaluator
	// InvalidateAll drops all cached per-node state, forcing the next
	// evaluation to recompute from scratch.
	InvalidateAll()
}

// EvaluatorFactory constructs one evaluator instance. A pool calls it
// once per worker, because engines own mutable scratch buffers and are
// not safe for concurrent use.
type EvaluatorFactory func() (Evaluator, error)

// WarmStarter is an Evaluator that can pre-warm its internal caches
// from an already-warm sibling engine — sharing read-only state (the
// beagle engine shares its cached transition matrices and tip tables)
// so pool workers do not each pay the cold-start cost the parent
// already paid. WarmStart must be called before the evaluator is used
// concurrently with the parent; shared state must be immutable
// afterwards. Warm-starting never changes results, only speed.
type WarmStarter interface {
	WarmStart(parent Evaluator)
}

// EvaluatorPool owns one evaluator per worker goroutine and scores
// batches of trees concurrently. Results are bit-deterministic for a
// given input regardless of worker count: each tree's score depends
// only on its own content (engines recompute anything their cache
// can't prove current, and reuse is bit-identical to recomputation),
// and scores land in the output slice by tree index, never by
// completion order — the same discipline as forest.Train.
type EvaluatorPool struct {
	evs []Evaluator
}

// NewEvaluatorPool builds a pool of `workers` evaluators. The factory
// runs serially, so factories that share an RNG or other mutable state
// behave deterministically.
func NewEvaluatorPool(workers int, factory EvaluatorFactory) (*EvaluatorPool, error) {
	if workers < 1 {
		return nil, fmt.Errorf("phylo: pool needs >= 1 worker, got %d", workers)
	}
	if factory == nil {
		return nil, fmt.Errorf("phylo: nil evaluator factory")
	}
	p := &EvaluatorPool{evs: make([]Evaluator, workers)}
	for i := range p.evs {
		ev, err := factory()
		if err != nil {
			return nil, fmt.Errorf("phylo: pool worker %d: %w", i, err)
		}
		if ev == nil {
			return nil, fmt.Errorf("phylo: pool worker %d: factory returned nil", i)
		}
		p.evs[i] = ev
	}
	// Workers 1..n share worker 0's immutable model state (eigen
	// decomposition, cached transition matrices) when the engine
	// supports it, so a pool does not pay the cold-start cost once per
	// worker.
	for i := 1; i < len(p.evs); i++ {
		if ws, ok := p.evs[i].(WarmStarter); ok {
			ws.WarmStart(p.evs[0])
		}
	}
	return p, nil
}

// WarmStart pre-warms every worker engine from an external, already
// warm parent evaluator (typically the engine that built or previously
// scored the trees about to be fanned out). Engines that do not
// implement WarmStarter are skipped. The parent must not be evaluated
// concurrently with the call.
func (p *EvaluatorPool) WarmStart(parent Evaluator) {
	for _, ev := range p.evs {
		if ws, ok := ev.(WarmStarter); ok && ev != parent {
			ws.WarmStart(parent)
		}
	}
}

// Workers returns the pool size.
func (p *EvaluatorPool) Workers() int { return len(p.evs) }

// Evaluator returns worker w's engine for exclusive use by one
// goroutine at a time.
func (p *EvaluatorPool) Evaluator(w int) Evaluator { return p.evs[w] }

// ScoreAll evaluates every tree and returns the scores in tree order.
// Trees are split into contiguous blocks, one per worker: worker w
// always owns the same index range for a given batch size, so a tree
// that is rescored across generations keeps landing on the same engine
// and that engine's per-tree incremental caches stay hot. Each worker
// evaluates on its own engine and writes only its own output slots.
func (p *EvaluatorPool) ScoreAll(trees []*Tree) []float64 {
	out := make([]float64, len(trees))
	if len(trees) == 0 {
		return out
	}
	workers := len(p.evs)
	if workers > len(trees) {
		workers = len(trees)
	}
	if workers <= 1 {
		for i, t := range trees {
			out[i] = p.evs[0].LogLikelihood(t)
		}
		return out
	}
	chunk := (len(trees) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(trees) {
			hi = len(trees)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(ev Evaluator, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = ev.LogLikelihood(trees[i])
			}
		}(p.evs[w], lo, hi)
	}
	wg.Wait()
	return out
}

// TotalWork sums the workers' evaluation costs in worker order. Work
// is counted in integer-valued cell updates, so the sum is exact and
// identical no matter how the scheduler distributed the trees.
func (p *EvaluatorPool) TotalWork() float64 {
	var w float64
	for _, ev := range p.evs {
		w += ev.TotalWork()
	}
	return w
}
