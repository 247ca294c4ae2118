// Package beagle is this repository's analogue of BEAGLE
// (Broad-platform Evolutionary Analysis General Likelihood Evaluator),
// the library the paper's group built "to speed up the likelihood
// calculations at the heart of most phylogenetic analysis programs"
// (Section II-A). The original offloads to GPUs; here the same role is
// played by a CPU-optimized evaluation engine that is exactly
// exchangeable with the reference implementation in internal/phylo:
//
//   - tip-state specialization: leaves own no buffers — a leaf child's
//     contribution is a precomputed transition-matrix column, indexed
//     per pattern (tips.go),
//   - fused, blocked pruning kernels: a binary node is one sweep
//     part = (P₁·c₁) ⊙ (P₂·c₂) with the child-scale addition folded
//     in, pattern-major with no per-cell modulo (kernels.go),
//   - an LRU transition cache keyed by (branch length, leaf edge?):
//     an entry holds one kind of state — the per-category matrices an
//     internal child is multiplied by, or the tip tables a leaf child
//     is read from — never both; it is bounded in bytes as well as in
//     entries, evicted buffers recycle through a free list, and pool
//     workers share entries read-only via WarmStart (cache.go),
//   - incremental re-evaluation with per-tree banks of copy-on-write
//     conditional-likelihood buffers, so one engine scoring many trees
//     alternately keeps every tree's cached state live within a byte
//     budget (banks.go) — the classic GARLI optimization extended
//     across a whole population; with incremental reuse off a full
//     traversal instead holds only its post-order frontier, each
//     child's buffer going back to the free list once its parent is
//     computed,
//   - rescaling applied per node only when magnitudes demand it.
//
// Correctness is pinned to the reference implementation by property
// tests: both engines must agree to ~1e-9 on random trees, models and
// rate mixtures, and incremental evaluation must be bit-identical to
// full recomputation over long random mutation sequences — for
// nucleotide, amino-acid, and codon state spaces.
package beagle

import (
	"container/list"
	"fmt"
	"math"

	"lattice/internal/phylo"
)

// defaultBankBudget bounds the conditional-likelihood memory one
// engine retains across trees. 64 MiB holds a pool worker's share of a
// GA population at realistic sizes (tens of 50-taxon, 1000-site trees)
// while keeping a many-engine pool within commodity memory.
const defaultBankBudget = 64 << 20

// Engine evaluates tree log-likelihoods. It is not safe for concurrent
// use; create one engine per goroutine (phylo.EvaluatorPool does
// exactly that for parallel population scoring).
type Engine struct {
	data  *phylo.PatternData
	model *phylo.Model
	rates *phylo.SiteRates

	nStates int
	nCats   int
	nPat    int

	// pmats is the bounded LRU transition cache keyed by branch length
	// and edge kind; an entry carries the per-category matrices or the
	// tip-column tables. The GA mutates one branch per generation, so
	// almost every edge of an evaluated tree has been seen before.
	pmats *pmatCache

	// tipIdx[taxon][pattern] is the tip-table index for that taxon's
	// observed state (nStates = missing). Depends only on the data.
	tipIdx [][]uint8

	// Incremental re-evaluation state: per-tree banks keyed by
	// phylo.Tree.UID (banks.go). A node is recomputed only when its
	// bank's structural record no longer matches the tree or a
	// descendant was recomputed this pass — so a single branch-length
	// change re-runs the pruning kernel only on the path from the
	// mutated edge to the root, and revisiting a previously scored
	// tree reuses everything.
	//
	// Soundness: validity is detected structurally, not by mutation
	// hooks, so callers may freely mutate Node.Length in place (as the
	// branch optimizer does). The induction that "record matches ⇒
	// buffer holds the right partial" requires every recorded node to
	// be re-checked on every evaluation; trees of a different node
	// count would leave unvisited stale records behind, so a size
	// change invalidates wholesale (see LogLikelihood).
	incremental bool
	lastNodes   int
	banks       map[uint64]*bank
	bankLRU     *list.List // front = most recently evaluated
	lastBank    *bank      // seed source for the next new tree
	bankBytes   int64
	bankBudget  int64
	claBytes    int64 // accounted bytes of one claBuf
	freeBufs    []*claBuf
	freeBanks   []*bank
	maxFreeBufs int

	// Per-evaluation scratch, reused across calls. matScratch holds the
	// C·S·S matrices a leaf-edge cache miss exponentiates and keeps only
	// the tip tables of.
	touched    []bool
	expScratch []float64
	matScratch []float64

	// Evaluations counts LogLikelihood calls; CacheHits / CacheMisses
	// count transition-matrix lookups. PartialsComputed and
	// PartialsReused count per-node pruning passes executed vs skipped
	// by incremental re-evaluation. TipCells / InternalCells split the
	// kernel cell updates by child kind; BufRecycled counts
	// conditional-likelihood buffers served from the free list; the
	// Bank* counters track per-tree bank reuse and budget evictions.
	Evaluations      int
	CacheHits        int
	CacheMisses      int
	PartialsComputed int
	PartialsReused   int
	TipCells         int64
	InternalCells    int64
	BufRecycled      int
	BankHits         int
	BankMisses       int
	BankEvictions    int
	// work accumulates evaluation cost in cell updates (the same unit
	// as phylo.Likelihood.Work). Every increment is an integer-valued
	// float64, so sums and differences are exact and parallel runs can
	// report bit-identical totals regardless of scheduling.
	work float64
}

// Engine implements phylo.Evaluator, the incremental extension, and
// the pool warm-start seam.
var (
	_ phylo.Evaluator            = (*Engine)(nil)
	_ phylo.IncrementalEvaluator = (*Engine)(nil)
	_ phylo.WarmStarter          = (*Engine)(nil)
)

// nodeRecord is the structural signature of the subtree whose partial
// a buffer slot holds: the leaf taxon, and the ordered child IDs and
// child branch lengths (child order matters — it fixes the floating-
// point accumulation order, which keeps reuse bit-identical to
// recomputation).
type nodeRecord struct {
	valid     bool
	taxon     int
	childIDs  []int
	childLens []float64
}

// matches reports whether the record describes node n's current
// neighborhood exactly.
func (r *nodeRecord) matches(n *phylo.Node) bool {
	if !r.valid || r.taxon != n.Taxon || len(r.childIDs) != len(n.Children) {
		return false
	}
	for i, c := range n.Children {
		if r.childIDs[i] != c.ID || r.childLens[i] != c.Length {
			return false
		}
	}
	return true
}

// record snapshots node n's current neighborhood.
func (r *nodeRecord) record(n *phylo.Node) {
	r.valid = true
	r.taxon = n.Taxon
	r.childIDs = r.childIDs[:0]
	r.childLens = r.childLens[:0]
	for _, c := range n.Children {
		r.childIDs = append(r.childIDs, c.ID)
		r.childLens = append(r.childLens, c.Length)
	}
}

// New builds an engine for the given data, model and rate mixture.
func New(data *phylo.PatternData, model *phylo.Model, rates *phylo.SiteRates) (*Engine, error) {
	if data.Type != model.Type {
		return nil, fmt.Errorf("beagle: data type %v does not match model type %v", data.Type, model.Type)
	}
	if rates == nil {
		var err error
		rates, err = phylo.NewSiteRates(phylo.RateHomogeneous, 0, 0, 1)
		if err != nil {
			return nil, err
		}
	}
	S := model.Type.NumStates()
	e := &Engine{
		data:        data,
		model:       model,
		rates:       rates,
		nStates:     S,
		nCats:       rates.NumCats(),
		nPat:        data.NumPatterns(),
		pmats:       newPmatCache(pmatCapacity(S, rates.NumCats())),
		tipIdx:      buildTipIndex(data.States, data.NumTaxa, data.NumPatterns(), S),
		incremental: true,
		banks:       make(map[uint64]*bank),
		bankLRU:     list.New(),
		bankBudget:  defaultBankBudget,
		expScratch:  make([]float64, S),
	}
	// Every size derived from (nPat, nCats, nStates).
	e.claBytes = int64(e.nPat*e.nCats*e.nStates+e.nPat) * 8
	e.maxFreeBufs = int(e.bankBudget/e.claBytes) + 8
	e.matScratch = make([]float64, e.nCats*e.nStates*e.nStates)
	return e, nil
}

// SetIncremental toggles incremental re-evaluation (on by default).
// Disabling it forces a full pruning pass per evaluation — useful for
// benchmarking the incremental gain in isolation. Toggling invalidates
// all cached partials so stale records can never be consulted later.
func (e *Engine) SetIncremental(on bool) {
	if e.incremental == on {
		return
	}
	e.incremental = on
	e.InvalidateAll()
}

// setMemoryBudget re-bounds the bytes of conditional-likelihood state
// the engine retains across trees (64 MiB in every deployment; the
// eviction tests shrink it). Shrinking evicts the least recently
// evaluated trees' banks on the next evaluation.
func (e *Engine) setMemoryBudget(bytes int64) {
	if bytes < e.claBytes {
		bytes = e.claBytes
	}
	e.bankBudget = bytes
	e.maxFreeBufs = int(e.bankBudget/e.claBytes) + 8
}

// InvalidateAll implements phylo.IncrementalEvaluator: it drops every
// cached per-node conditional likelihood, forcing the next evaluation
// to recompute the whole tree. Transition matrices stay cached — they
// depend only on the model and branch lengths, not on tree content.
func (e *Engine) InvalidateAll() {
	e.dropAllBanks()
}

// WarmStart implements phylo.WarmStarter: it adopts the parent
// engine's cached transition entries (matrices and tip tables) when the
// parent provably computes identical ones — same model and rate
// objects. Shared entries are immutable and flagged on both sides so
// neither engine ever recycles a buffer the other may read; beyond
// that the engines stay fully independent, so this is safe under
// concurrent use afterward. A worker warm-started from the engine that
// built the candidate trees starts with every hot branch length
// resident instead of re-deriving thousands of matrix exponentials.
func (e *Engine) WarmStart(parent phylo.Evaluator) {
	p, ok := parent.(*Engine)
	if !ok || p == e {
		return
	}
	if p.model != e.model || p.rates != e.rates || p.data != e.data {
		return
	}
	p.pmats.shareInto(e.pmats)
}

// Stats is a snapshot of the engine's evaluation counters.
type Stats struct {
	Evaluations      int
	PartialsComputed int
	PartialsReused   int
	CacheHits        int
	CacheMisses      int
	CacheEvictions   int
	CacheSize        int
	PmatRecycled     int
	TipCells         int64
	InternalCells    int64
	BufRecycled      int
	BankHits         int
	BankMisses       int
	BankEvictions    int
	NumSites         int
	NumPatterns      int
	Work             float64
}

// Stats returns the engine's current counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Evaluations:      e.Evaluations,
		PartialsComputed: e.PartialsComputed,
		PartialsReused:   e.PartialsReused,
		CacheHits:        e.CacheHits,
		CacheMisses:      e.CacheMisses,
		CacheEvictions:   e.pmats.evictions,
		CacheSize:        e.pmats.size(),
		PmatRecycled:     e.pmats.recycled,
		TipCells:         e.TipCells,
		InternalCells:    e.InternalCells,
		BufRecycled:      e.BufRecycled,
		BankHits:         e.BankHits,
		BankMisses:       e.BankMisses,
		BankEvictions:    e.BankEvictions,
		NumSites:         e.data.NumSites,
		NumPatterns:      e.nPat,
		Work:             e.work,
	}
}

// ReuseFraction is the share of per-node pruning passes that
// incremental re-evaluation skipped.
func (s Stats) ReuseFraction() float64 {
	total := s.PartialsComputed + s.PartialsReused
	if total == 0 {
		return 0
	}
	return float64(s.PartialsReused) / float64(total)
}

// CacheHitRate is the share of transition-matrix lookups served from
// cache.
func (s Stats) CacheHitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// PatternCompression is the duplicate-column compression ratio of the
// alignment: sites per unique site pattern. Cell cost scales with
// patterns, so this is the "free" speedup real-shaped data gets
// before any kernel runs.
func (s Stats) PatternCompression() float64 {
	if s.NumPatterns == 0 {
		return 0
	}
	return float64(s.NumSites) / float64(s.NumPatterns)
}

// transition returns the cached entry for a branch length on a leaf or
// an internal edge — the tip tables or the per-category matrices —
// computing it on miss. A leaf-edge miss exponentiates into the
// engine's scratch and keeps only the tables built from it; the entry's
// buffer recycles from evicted entries and the eigen scratch is
// engine-owned, so past the cold fill a miss allocates the entry alone.
func (e *Engine) transition(length float64, leaf bool) *pmatEntry {
	if pe, ok := e.pmats.get(length, leaf); ok {
		e.CacheHits++
		return pe
	}
	e.CacheMisses++
	S, C := e.nStates, e.nCats
	pe := &pmatEntry{key: pmatKey{length, leaf}}
	mats := e.matScratch
	if leaf {
		pe.tips = e.pmats.buffer(leaf, C*S*(S+1))
	} else {
		pe.mats = e.pmats.buffer(leaf, C*S*S)
		mats = pe.mats
	}
	es := e.model.Eigen()
	for c := 0; c < C; c++ {
		es.TransitionProbsInto(length*e.rates.Rates[c], mats[c*S*S:(c+1)*S*S], e.expScratch)
	}
	if leaf {
		buildTipTables(mats, pe.tips, S, C)
	}
	e.pmats.put(pe)
	return pe
}

// OptimizeBranch implements phylo.Evaluator via the shared
// golden-section optimizer. Because the optimizer changes exactly one
// branch length between evaluations, incremental re-evaluation turns
// each of its probes into a path-to-root recomputation instead of a
// full pruning pass.
func (e *Engine) OptimizeBranch(t *phylo.Tree, n *phylo.Node, iterations int) float64 {
	return phylo.OptimizeBranchOf(e, t, n, iterations)
}

// TotalWork implements phylo.Evaluator.
func (e *Engine) TotalWork() float64 { return e.work }

// childTouched reports whether any child of n was recomputed this
// pass (post-order guarantees children are decided before parents).
func childTouched(n *phylo.Node, touched []bool) bool {
	for _, c := range n.Children {
		if touched[c.ID] {
			return true
		}
	}
	return false
}

// LogLikelihood evaluates the data's log-likelihood on tree t.
//
// With incremental re-evaluation enabled (the default), per-node
// conditional likelihoods cached from earlier evaluations — of this
// tree, of any clone seeded from it, or of this tree on a previous
// visit (per-tree banks) — are reused wherever the recorded subtree
// structure still matches, so the pruning kernel runs only on nodes
// whose subtree actually changed. The result is bit-identical to a
// full recomputation: reuse is only ever of values the full pass would
// recompute from identical inputs in identical order.
func (e *Engine) LogLikelihood(t *phylo.Tree) float64 {
	e.Evaluations++
	nn := len(t.Nodes)
	if nn != e.lastNodes {
		e.dropAllBanks()
		e.lastNodes = nn
	}
	if t.Root.IsLeaf() {
		// Degenerate single-node tree: the root readout over an
		// indicator vector needs no buffers at all.
		return e.rootLeafLogL(t.Root.Taxon)
	}
	for len(e.touched) < nn {
		e.touched = append(e.touched, false)
	}
	bk := e.bankFor(t.UID(), nn)
	e.evictBanks(bk)
	touched := e.touched[:nn]
	for i := range touched {
		touched[i] = false
	}
	t.PostOrder(func(n *phylo.Node) {
		rec := &bk.recs[n.ID]
		if e.incremental && rec.matches(n) && !childTouched(n, touched) {
			e.PartialsReused++
			return
		}
		touched[n.ID] = true
		e.PartialsComputed++
		if !n.IsLeaf() {
			// Leaves carry no state: their contribution is read from
			// the tip tables by the parent's kernel. Their records
			// still participate so a taxon change at a node ID
			// invalidates the parent chain.
			e.computeNode(bk, n)
		}
		if e.incremental {
			rec.record(n)
		} else {
			// Nothing rereads a child once its parent is computed.
			for _, c := range n.Children {
				e.giveBack(bk, c.ID)
			}
		}
	})
	rootBuf := bk.bufs[t.Root.ID]
	root := rootBuf.part
	rscale := rootBuf.scale
	pi := e.model.Freqs
	S, C := e.nStates, e.nCats
	var logL float64
	for p := 0; p < e.nPat; p++ {
		var site float64
		for c := 0; c < C; c++ {
			base := (p*C + c) * S
			var cat float64
			for s := 0; s < S; s++ {
				cat += pi[s] * root[base+s]
			}
			site += e.rates.Weights[c] * cat
		}
		if site <= 0 {
			site = math.SmallestNonzeroFloat64
		}
		logL += e.data.Weights[p] * (math.Log(site) + rscale[p])
	}
	if !e.incremental {
		e.giveBack(bk, t.Root.ID)
	}
	return logL
}

// childRefFor resolves child c's kernel inputs — fetching (or
// computing) its transition entry and accounting work and cell
// counters. The returned ref's matrix slices stay valid until the
// next transition-cache miss, so callers must consume a ref before
// fetching more than one further child (the fused pair holds two at
// once, which the cache's minimum capacity guarantees).
func (e *Engine) childRefFor(bk *bank, c *phylo.Node) childRef {
	pe := e.transition(c.Length, c.IsLeaf())
	S, C, nPat := e.nStates, e.nCats, e.nPat
	e.work += float64(nPat+1) * float64(C) * float64(S) * float64(S)
	if c.IsLeaf() {
		e.TipCells += int64(nPat) * int64(C) * int64(S)
		return childRef{tips: pe.tips, idx: e.tipIdx[c.Taxon]}
	}
	e.InternalCells += int64(nPat) * int64(C) * int64(S)
	cb := bk.bufs[c.ID]
	return childRef{mats: pe.mats, part: cb.part, scale: cb.scale}
}

// computeNode runs the pruning kernels for internal node n into a
// buffer this bank may write, fusing the first two children into a
// single sweep and accumulating any further children. Each child's
// transition entry is fetched immediately before the kernel that
// consumes it, so cache eviction can never recycle a matrix still in
// use.
func (e *Engine) computeNode(bk *bank, n *phylo.Node) {
	buf := e.writableBuf(bk, n.ID)
	part, scale := buf.part, buf.scale
	S, C, nPat := e.nStates, e.nCats, e.nPat

	kids := n.Children
	if len(kids) == 1 {
		r := e.childRefFor(bk, kids[0])
		if r.isTip() {
			writeT(part, scale, &r, nPat, C, S)
		} else {
			writeI(part, scale, &r, nPat, C, S)
		}
		rescale(part, scale, nPat, C, S)
		return
	}

	ra := e.childRefFor(bk, kids[0])
	rb := e.childRefFor(bk, kids[1])
	a, b := &ra, &rb
	if a.isTip() && !b.isTip() {
		// Multiplication commutes bitwise in IEEE-754, so normalizing
		// tip-first pairs to internal-first halves the fused kernel
		// set without changing any value.
		a, b = b, a
	}
	if S == 4 {
		switch {
		case a.isTip():
			fuseTT4(part, scale, a, b, nPat, C)
		case b.isTip():
			fuseIT4(part, scale, a, b, nPat, C)
		default:
			fuseII4(part, scale, a, b, nPat, C)
		}
	} else {
		switch {
		case a.isTip():
			fuseTTG(part, scale, a, b, nPat, C, S)
		case b.isTip():
			fuseITG(part, scale, a, b, nPat, C, S)
		default:
			fuseIIG(part, scale, a, b, nPat, C, S)
		}
	}
	for i := 2; i < len(kids); i++ {
		r := e.childRefFor(bk, kids[i])
		if S == 4 {
			if r.isTip() {
				accT4(part, &r, nPat, C)
			} else {
				accI4(part, scale, &r, nPat, C)
			}
		} else {
			if r.isTip() {
				accTG(part, &r, nPat, C, S)
			} else {
				accIG(part, scale, &r, nPat, C, S)
			}
		}
	}
	rescale(part, scale, nPat, C, S)
}

// rootLeafLogL evaluates the degenerate tree whose root is a leaf:
// the site likelihood is the stationary frequency of the observed
// state (or the left-to-right frequency sum for missing data), summed
// over rate categories exactly as the buffered readout would.
func (e *Engine) rootLeafLogL(taxon int) float64 {
	pi := e.model.Freqs
	S, C := e.nStates, e.nCats
	idx := e.tipIdx[taxon]
	var piSum float64
	for s := 0; s < S; s++ {
		piSum += pi[s]
	}
	var logL float64
	for p := 0; p < e.nPat; p++ {
		cat := piSum
		if ti := int(idx[p]); ti < S {
			cat = pi[ti]
		}
		var site float64
		for c := 0; c < C; c++ {
			site += e.rates.Weights[c] * cat
		}
		if site <= 0 {
			site = math.SmallestNonzeroFloat64
		}
		logL += e.data.Weights[p] * math.Log(site)
	}
	return logL
}
