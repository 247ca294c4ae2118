package phylo

import (
	"fmt"
	"math"
)

// Likelihood evaluates tree log-likelihoods under a model and a rate
// mixture using Felsenstein's pruning algorithm with per-node
// numerical rescaling.
//
// Every evaluation accrues into Work an abstract cost in "cell
// updates" (one state×state product-sum). This is the quantity the
// grid simulators consume: a job's runtime on a resource is its
// accumulated Work divided by the resource's effective rate, so
// heavier models (more states, more rate categories, more patterns)
// genuinely take longer — the same physics the paper's random forest
// model learns from real GARLI runs.
type Likelihood struct {
	Data  *PatternData
	Model *Model
	Rates *SiteRates

	// Work is the total cost accrued by evaluations, in cell updates.
	Work float64

	nStates int
	nCats   int
	// Scratch buffers reused across evaluations, keyed by node ID.
	partials [][]float64 // [node][pat*cats*states]
	scales   [][]float64 // [node][pat] log scaling factor
	pmats    []*Matrix   // per-category transition matrix scratch
	expl     []float64   // TransitionProbsInto's eigenvalue scratch
}

// NewLikelihood pairs compiled data with a model and rate mixture.
func NewLikelihood(data *PatternData, model *Model, rates *SiteRates) (*Likelihood, error) {
	if data.Type != model.Type {
		return nil, fmt.Errorf("phylo: data type %v does not match model type %v", data.Type, model.Type)
	}
	if rates == nil {
		var err error
		rates, err = NewSiteRates(RateHomogeneous, 0, 0, 1)
		if err != nil {
			return nil, err
		}
	}
	lk := &Likelihood{
		Data:    data,
		Model:   model,
		Rates:   rates,
		nStates: model.Type.NumStates(),
		nCats:   rates.NumCats(),
		expl:    make([]float64, model.Type.NumStates()),
	}
	lk.pmats = make([]*Matrix, lk.nCats)
	for i := range lk.pmats {
		lk.pmats[i] = NewMatrix(lk.nStates)
	}
	return lk, nil
}

// ensureBuffers sizes the per-node scratch space for a tree.
func (lk *Likelihood) ensureBuffers(n int) {
	for len(lk.partials) < n {
		lk.partials = append(lk.partials, nil)
		lk.scales = append(lk.scales, nil)
	}
	size := lk.Data.NumPatterns() * lk.nCats * lk.nStates
	for i := 0; i < n; i++ {
		if len(lk.partials[i]) != size {
			lk.partials[i] = make([]float64, size)
			lk.scales[i] = make([]float64, lk.Data.NumPatterns())
		}
	}
}

// LogLikelihood computes the log-likelihood of the data on tree t.
// The tree's leaf Taxon indices must address rows of the compiled
// alignment.
func (lk *Likelihood) LogLikelihood(t *Tree) float64 {
	npat := lk.Data.NumPatterns()
	S := lk.nStates
	C := lk.nCats
	lk.ensureBuffers(len(t.Nodes))

	t.PostOrder(func(n *Node) {
		part := lk.partials[n.ID]
		scale := lk.scales[n.ID]
		for i := range scale {
			scale[i] = 0
		}
		if n.IsLeaf() {
			lk.fillLeaf(part, n.Taxon)
			return
		}
		for i := range part {
			part[i] = 1
		}
		for _, child := range n.Children {
			// Build per-category transition matrices for this edge.
			for c := 0; c < C; c++ {
				lk.Model.Eigen().TransitionProbsInto(child.Length*lk.Rates.Rates[c], lk.pmats[c].Data, lk.expl)
			}
			lk.Work += float64(C) * float64(S) * float64(S) // matrix build (amortized S³/S² per pattern-free edge work)
			cpart := lk.partials[child.ID]
			cscale := lk.scales[child.ID]
			for p := 0; p < npat; p++ {
				scale[p] += cscale[p]
				for c := 0; c < C; c++ {
					pm := lk.pmats[c].Data
					base := (p*C + c) * S
					for s := 0; s < S; s++ {
						var sum float64
						row := pm[s*S : (s+1)*S]
						cvec := cpart[base : base+S]
						for x := 0; x < S; x++ {
							sum += row[x] * cvec[x]
						}
						part[base+s] *= sum
					}
				}
			}
			lk.Work += float64(npat) * float64(C) * float64(S) * float64(S)
		}
		// Rescale to avoid underflow on deep trees.
		for p := 0; p < npat; p++ {
			maxv := 0.0
			base := p * C * S
			for i := base; i < base+C*S; i++ {
				if part[i] > maxv {
					maxv = part[i]
				}
			}
			if maxv > 0 && maxv < 1e-100 {
				inv := 1 / maxv
				for i := base; i < base+C*S; i++ {
					part[i] *= inv
				}
				scale[p] += math.Log(maxv)
			}
		}
	})

	root := lk.partials[t.Root.ID]
	rscale := lk.scales[t.Root.ID]
	pi := lk.Model.Freqs
	var logL float64
	for p := 0; p < npat; p++ {
		var site float64
		for c := 0; c < C; c++ {
			base := (p*C + c) * S
			var cat float64
			for s := 0; s < S; s++ {
				cat += pi[s] * root[base+s]
			}
			site += lk.Rates.Weights[c] * cat
		}
		if site <= 0 {
			site = math.SmallestNonzeroFloat64
		}
		logL += lk.Data.Weights[p] * (math.Log(site) + rscale[p])
	}
	return logL
}

// fillLeaf writes the tip conditional likelihoods for taxon into part:
// an indicator vector for observed states, all ones for missing data.
func (lk *Likelihood) fillLeaf(part []float64, taxon int) {
	npat := lk.Data.NumPatterns()
	S := lk.nStates
	C := lk.nCats
	nt := lk.Data.NumTaxa
	for p := 0; p < npat; p++ {
		st := lk.Data.States[p*nt+taxon]
		for c := 0; c < C; c++ {
			base := (p*C + c) * S
			if st < 0 {
				for s := 0; s < S; s++ {
					part[base+s] = 1
				}
			} else {
				for s := 0; s < S; s++ {
					part[base+s] = 0
				}
				part[base+int(st)] = 1
			}
		}
	}
}

// EvalCost returns the expected Work of a single LogLikelihood call on
// a tree with the given number of taxa — used by the workload model to
// reason about cost without running a search.
func EvalCost(npatterns, ntaxa, nstates, ncats int) float64 {
	// A binary unrooted tree over n taxa has 2n-3 edges; each edge
	// costs npat*C*S^2 plus a C*S^2 matrix build.
	edges := float64(2*ntaxa - 3)
	per := float64(ncats) * float64(nstates) * float64(nstates)
	return edges * per * (float64(npatterns) + 1)
}

// OptimizeBranch improves the length of the branch above node n by
// golden-section search on ev's full tree likelihood, over a local
// bracket around the current length (widened geometrically so a few
// iterations refine rather than scramble the branch). It returns the
// achieved log-likelihood and never leaves the branch worse than it
// started. This is the simple, robust branch optimizer the GA applies
// to mutated branches on every engine; cost accrues to the engine's
// work through the repeated evaluations exactly as GARLI's
// Newton–Raphson passes do. It changes one branch length between
// evaluations, so an incremental engine recomputes only the path from
// that branch to the root per probe.
func OptimizeBranch(ev Evaluator, t *Tree, n *Node, iterations int) float64 {
	const (
		minLen = 1e-8
		maxLen = 10.0
		phi    = 0.6180339887498949
	)
	if n.Parent == nil {
		return ev.LogLikelihood(t)
	}
	start := n.Length
	if start < minLen {
		start = minLen
	}
	f0 := ev.LogLikelihood(t)
	eval := func(x float64) float64 {
		n.Length = x
		return ev.LogLikelihood(t)
	}
	// Coarse geometric scan to find the right magnitude, then a local
	// golden-section refinement around the winner. The scan protects
	// against wildly mis-set branches after topology surgery.
	center, fc := start, f0
	for _, x := range [...]float64{0.002, 0.02, 0.1, 0.5, 2} {
		if f := eval(x); f > fc {
			center, fc = x, f
		}
	}
	a := center / 8
	b := center * 8
	if a < minLen {
		a = minLen
	}
	if b > maxLen {
		b = maxLen
	}
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	f1, f2 := eval(x1), eval(x2)
	for i := 0; i < iterations; i++ {
		if f1 < f2 {
			a, x1, f1 = x1, x2, f2
			x2 = a + phi*(b-a)
			f2 = eval(x2)
		} else {
			b, x2, f2 = x2, x1, f1
			x1 = b - phi*(b-a)
			f1 = eval(x1)
		}
	}
	bestX, bestF := x1, f1
	if f2 > bestF {
		bestX, bestF = x2, f2
	}
	if f0 > bestF {
		// Keep the original length if the bracket never beat it.
		n.Length = start
		return f0
	}
	n.Length = bestX
	return bestF
}

// TotalWork implements Evaluator.
func (lk *Likelihood) TotalWork() float64 { return lk.Work }

// NumTaxa implements Evaluator.
func (lk *Likelihood) NumTaxa() int { return lk.Data.NumTaxa }
