package forest

import (
	"math"
	"slices"

	"lattice/internal/sim"
)

// treeNode is one node of a CART regression tree, stored in a flat
// slice for cache-friendly prediction.
type treeNode struct {
	feature   int     // -1 for leaves
	threshold float64 // numeric split: x <= threshold goes left
	catLeft   uint64  // categorical split: bit c set = category c goes left
	value     float64 // leaf prediction (mean response)
	left      int     // index of left child
	right     int     // index of right child
}

// goesLeft reports which child of split node n a row whose split
// feature holds v, of the given kind, descends to.
func (n *treeNode) goesLeft(v float64, kind FeatureKind) bool {
	if kind == Categorical {
		return n.catLeft&(1<<uint(int(v))) != 0
	}
	return v <= n.threshold
}

// regTree is a single regression tree grown on a bootstrap sample.
type regTree struct {
	nodes []treeNode
	oob   []int // row indices not drawn into the bootstrap sample
	// gain[f] accumulates the SSE reduction contributed by splits on
	// feature f (split-gain importance).
	gain []float64
}

// predict returns the tree's response for row x.
func (t *regTree) predict(x []float64, kinds []FeatureKind) float64 {
	i := 0
	for {
		n := &t.nodes[i]
		if n.feature < 0 {
			return n.value
		}
		if n.goesLeft(x[n.feature], kinds[n.feature]) {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// xy is one (covariate, response) pair of a numeric split scan.
type xy struct{ x, y float64 }

// lvl is one occupied category level of a categorical split scan.
type lvl struct {
	cat  int
	mean float64
}

// cmpFloat is the three-way form of a < b that the split scans sort
// by. Ties compare equal, so the order inside a tie group is the
// sort's own — the scans' running sums round in that order, and every
// forest depends on it bit for bit.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case b < a:
		return +1
	}
	return 0
}

// treeBuilder grows every tree one Train worker is handed. It owns all
// the scratch growth needs — the bootstrap rows, the partition buffer,
// the sort pairs, the feature permutation, the node list, the RNG — so
// a tree costs only the allocations that outlive it (nodes, oob, gain)
// and concurrent builders share nothing they write.
type treeBuilder struct {
	cfg   Config
	kinds []FeatureKind
	// cols is X column-major, shared read-only between builders:
	// feature f of row r is cols[f*len(y)+r]. A split scan walks one
	// column instead of chasing a row pointer per cell.
	cols []float64
	y    []float64
	rng  *sim.RNG

	rows    []int  // the tree's bootstrap sample, partitioned in place as it grows
	scratch []int  // right-hand rows of the partition in progress
	inBag   []bool // row drawn into the current sample
	perm    []int  // feature order of the node being split
	pairs   []xy   // numeric split scan
	nodes   []treeNode
	gain    []float64 // per-feature SSE reduction of the growing tree
}

// newTreeBuilder sizes a builder for the n = len(y) rows of cols.
func newTreeBuilder(cfg Config, kinds []FeatureKind, cols, y []float64) *treeBuilder {
	n := len(y)
	return &treeBuilder{
		cfg: cfg, kinds: kinds, cols: cols, y: y,
		rng:     sim.NewRNG(0),
		rows:    make([]int, n),
		scratch: make([]int, n),
		inBag:   make([]bool, n),
		perm:    make([]int, len(kinds)),
		pairs:   make([]xy, n),
	}
}

// col returns feature f's column.
func (b *treeBuilder) col(f int) []float64 {
	n := len(b.y)
	return b.cols[f*n : (f+1)*n]
}

// grow draws a bootstrap sample from the stream seeded with seed and
// builds its tree.
func (b *treeBuilder) grow(seed int64) *regTree {
	b.rng.Reseed(seed)
	n := len(b.y)
	clear(b.inBag)
	distinct := 0
	for i := range b.rows {
		r := b.rng.Intn(n)
		b.rows[i] = r
		if !b.inBag[r] {
			b.inBag[r] = true
			distinct++
		}
	}
	b.nodes = b.nodes[:0]
	b.gain = make([]float64, len(b.kinds))
	b.buildNode(b.rows, 0)
	tr := &regTree{
		nodes: append([]treeNode(nil), b.nodes...),
		oob:   make([]int, 0, n-distinct),
		gain:  b.gain,
	}
	for i, in := range b.inBag {
		if !in {
			tr.oob = append(tr.oob, i)
		}
	}
	return tr
}

// buildNode recursively grows the subtree for rows, a window of
// b.rows it is free to reorder; returns the subtree's node index.
func (b *treeBuilder) buildNode(rows []int, depth int) int {
	idx := len(b.nodes)
	mean := b.meanY(rows)
	b.nodes = append(b.nodes, treeNode{feature: -1, value: mean})
	if len(rows) < 2*b.cfg.MinLeafSize || (b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) || b.pure(rows) {
		return idx
	}
	feat, thr, mask, splitSSE, ok := b.bestSplit(rows)
	if !ok {
		return idx
	}
	// The gain term sums responses in row order: take it before the
	// partition reorders rows.
	g := b.sse(rows) - splitSSE
	split := treeNode{feature: feat, threshold: thr, catLeft: mask, value: mean}
	nl := b.partition(rows, &split)
	if nl < b.cfg.MinLeafSize || len(rows)-nl < b.cfg.MinLeafSize {
		return idx
	}
	if g > 0 {
		b.gain[feat] += g
	}
	split.left = b.buildNode(rows[:nl], depth+1)
	split.right = b.buildNode(rows[nl:], depth+1)
	b.nodes[idx] = split
	return idx
}

// partition stably reorders rows so those split sends left come first,
// each side keeping its relative order (a child's sums must round as
// if its rows had been appended one by one); returns the left count.
func (b *treeBuilder) partition(rows []int, split *treeNode) int {
	col, kind := b.col(split.feature), b.kinds[split.feature]
	right := b.scratch[:0]
	nl := 0
	for _, r := range rows {
		if split.goesLeft(col[r], kind) {
			rows[nl] = r
			nl++
		} else {
			right = append(right, r)
		}
	}
	copy(rows[nl:], right)
	return nl
}

func (b *treeBuilder) meanY(rows []int) float64 {
	var s float64
	for _, r := range rows {
		s += b.y[r]
	}
	return s / float64(len(rows))
}

// sse returns the sum of squared deviations of rows' responses.
func (b *treeBuilder) sse(rows []int) float64 {
	var sum, sq float64
	for _, r := range rows {
		y := b.y[r]
		sum += y
		sq += y * y
	}
	n := float64(len(rows))
	return sq - sum*sum/n
}

func (b *treeBuilder) pure(rows []int) bool {
	first := b.y[rows[0]]
	for _, r := range rows[1:] {
		//lint:allow floatcmp -- purity test compares stored responses bit-for-bit, as R's randomForest does
		if b.y[r] != first {
			return false
		}
	}
	return true
}

// bestSplit evaluates MTry randomly chosen covariates and returns the
// split minimizing the children's summed squared error, along with
// that SSE.
func (b *treeBuilder) bestSplit(rows []int) (feat int, thr float64, mask uint64, sse float64, ok bool) {
	b.rng.PermInto(b.perm)
	bestSSE := math.Inf(1)
	for _, f := range b.perm[:b.cfg.MTry] {
		if b.kinds[f] == Categorical {
			if m, s2, valid := b.bestCategoricalSplit(rows, f); valid && s2 < bestSSE {
				bestSSE, feat, mask, thr, ok = s2, f, m, 0, true
			}
		} else {
			if t, s2, valid := b.bestNumericSplit(rows, f); valid && s2 < bestSSE {
				bestSSE, feat, thr, mask, ok = s2, f, t, 0, true
			}
		}
	}
	return feat, thr, mask, bestSSE, ok
}

// bestNumericSplit scans sorted unique values of feature f.
func (b *treeBuilder) bestNumericSplit(rows []int, f int) (thr, sse float64, ok bool) {
	col := b.col(f)
	ps := b.pairs[:len(rows)]
	for i, r := range rows {
		ps[i] = xy{col[r], b.y[r]}
	}
	slices.SortFunc(ps, func(a, b xy) int { return cmpFloat(a.x, b.x) })
	// Prefix sums for O(1) SSE of each split.
	n := len(ps)
	var sumL, sqL float64
	var sumR, sqR float64
	for _, p := range ps {
		sumR += p.y
		sqR += p.y * p.y
	}
	best := math.Inf(1)
	for i := 0; i < n-1; i++ {
		y := ps[i].y
		sumL += y
		sqL += y * y
		sumR -= y
		sqR -= y * y
		//lint:allow floatcmp -- adjacent sorted covariate values: a split threshold exists only between distinct stored values
		if ps[i+1].x == ps[i].x {
			continue // can't split between equal values
		}
		nl, nr := float64(i+1), float64(n-i-1)
		sseHere := (sqL - sumL*sumL/nl) + (sqR - sumR*sumR/nr)
		if sseHere < best {
			best = sseHere
			thr = (ps[i].x + ps[i+1].x) / 2
			ok = true
		}
	}
	return thr, best, ok
}

// bestCategoricalSplit orders category levels by mean response and
// scans that ordering — Fisher's method, optimal for regression
// without trying all 2^k subsets.
func (b *treeBuilder) bestCategoricalSplit(rows []int, f int) (mask uint64, sse float64, ok bool) {
	var sum, sq [maxCategories]float64
	var cnt [maxCategories]int
	col := b.col(f)
	for _, r := range rows {
		c := int(col[r])
		y := b.y[r]
		sum[c] += y
		sq[c] += y * y
		cnt[c]++
	}
	var buf [maxCategories]lvl
	lvls := buf[:0]
	for c := 0; c < maxCategories; c++ {
		if cnt[c] > 0 {
			lvls = append(lvls, lvl{c, sum[c] / float64(cnt[c])})
		}
	}
	if len(lvls) < 2 {
		return 0, 0, false
	}
	slices.SortFunc(lvls, func(a, b lvl) int { return cmpFloat(a.mean, b.mean) })
	var totalSum, totalSq float64
	var totalN int
	for _, l := range lvls {
		totalSum += sum[l.cat]
		totalSq += sq[l.cat]
		totalN += cnt[l.cat]
	}
	best := math.Inf(1)
	var curMask uint64
	var sumL, sqL float64
	var nL int
	for i := 0; i < len(lvls)-1; i++ {
		c := lvls[i].cat
		curMask |= 1 << uint(c)
		sumL += sum[c]
		sqL += sq[c]
		nL += cnt[c]
		nR := totalN - nL
		if nL == 0 || nR == 0 {
			continue
		}
		sumR := totalSum - sumL
		sqR := totalSq - sqL
		sseHere := (sqL - sumL*sumL/float64(nL)) + (sqR - sumR*sumR/float64(nR))
		if sseHere < best {
			best = sseHere
			mask = curMask
			ok = true
		}
	}
	return mask, best, ok
}
