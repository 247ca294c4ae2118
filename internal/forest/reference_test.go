package forest

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"lattice/internal/sim"
)

// This file is the reference oracle for tree growth. Every forest is
// required to stay bit-identical across rewrites of the builder
// (experiment goldens and the benchmark digest depend on it), and the
// identity is fragile: split scans accumulate float sums in sorted
// order, the sort's order inside a tie group depends on the node's
// input order, and children must see their rows in append order. The
// tests below grow each forest twice — with Train and with the
// pre-rewrite code kept here — and compare node for node.

// refBuilder is the tree builder as it stood before the worker-resident
// rewrite, kept verbatim (receiver renamed) as the oracle: it allocates
// per node and per tree, reads ds.X row-major and sorts with
// sort.Slice.
type refBuilder struct {
	ds    *Dataset
	cfg   Config
	rng   *sim.RNG
	nodes []treeNode
	gain  []float64 // per-feature SSE reduction of the growing tree
}

// grow builds a tree from the given bootstrap sample rows.
func (b *refBuilder) grow(rows []int) *regTree {
	b.nodes = b.nodes[:0]
	b.gain = make([]float64, b.ds.Schema.NumFeatures())
	b.buildNode(rows, 0)
	tr := &regTree{nodes: append([]treeNode(nil), b.nodes...), gain: b.gain}
	return tr
}

// buildNode recursively grows the subtree for rows; returns its index.
func (b *refBuilder) buildNode(rows []int, depth int) int {
	idx := len(b.nodes)
	b.nodes = append(b.nodes, treeNode{feature: -1})
	mean := b.meanY(rows)
	b.nodes[idx].value = mean
	if len(rows) < 2*b.cfg.MinLeafSize || (b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) || b.pure(rows) {
		return idx
	}
	feat, thr, mask, splitSSE, ok := b.bestSplit(rows)
	if !ok {
		return idx
	}
	var left, right []int
	kinds := b.ds.Schema.Kinds
	for _, r := range rows {
		v := b.ds.X[r][feat]
		var goLeft bool
		if kinds[feat] == Categorical {
			goLeft = mask&(1<<uint(int(v))) != 0
		} else {
			goLeft = v <= thr
		}
		if goLeft {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	if len(left) < b.cfg.MinLeafSize || len(right) < b.cfg.MinLeafSize {
		return idx
	}
	b.nodes[idx].feature = feat
	b.nodes[idx].threshold = thr
	b.nodes[idx].catLeft = mask
	if g := b.sse(rows) - splitSSE; g > 0 {
		b.gain[feat] += g
	}
	l := b.buildNode(left, depth+1)
	r := b.buildNode(right, depth+1)
	b.nodes[idx].left = l
	b.nodes[idx].right = r
	return idx
}

func (b *refBuilder) meanY(rows []int) float64 {
	var s float64
	for _, r := range rows {
		s += b.ds.Y[r]
	}
	return s / float64(len(rows))
}

// sse returns the sum of squared deviations of rows' responses.
func (b *refBuilder) sse(rows []int) float64 {
	var sum, sq float64
	for _, r := range rows {
		y := b.ds.Y[r]
		sum += y
		sq += y * y
	}
	n := float64(len(rows))
	return sq - sum*sum/n
}

func (b *refBuilder) pure(rows []int) bool {
	first := b.ds.Y[rows[0]]
	for _, r := range rows[1:] {
		//lint:allow floatcmp -- purity test compares stored responses bit-for-bit, as R's randomForest does
		if b.ds.Y[r] != first {
			return false
		}
	}
	return true
}

// bestSplit evaluates MTry randomly chosen covariates and returns the
// split minimizing the children's summed squared error, along with
// that SSE.
func (b *refBuilder) bestSplit(rows []int) (feat int, thr float64, mask uint64, sse float64, ok bool) {
	p := b.ds.Schema.NumFeatures()
	mtry := b.cfg.MTry
	if mtry > p {
		mtry = p
	}
	perm := b.rng.Perm(p)
	bestSSE := math.Inf(1)
	for _, f := range perm[:mtry] {
		if b.ds.Schema.Kinds[f] == Categorical {
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
func (b *refBuilder) bestNumericSplit(rows []int, f int) (thr, sse float64, ok bool) {
	type pair struct{ x, y float64 }
	ps := make([]pair, len(rows))
	for i, r := range rows {
		ps[i] = pair{b.ds.X[r][f], b.ds.Y[r]}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].x < ps[j].x })
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
func (b *refBuilder) bestCategoricalSplit(rows []int, f int) (mask uint64, sse float64, ok bool) {
	var sum, sq [maxCategories]float64
	var cnt [maxCategories]int
	for _, r := range rows {
		c := int(b.ds.X[r][f])
		y := b.ds.Y[r]
		sum[c] += y
		sq[c] += y * y
		cnt[c]++
	}
	type lvl struct {
		cat  int
		mean float64
	}
	var lvls []lvl
	for c := 0; c < maxCategories; c++ {
		if cnt[c] > 0 {
			lvls = append(lvls, lvl{c, sum[c] / float64(cnt[c])})
		}
	}
	if len(lvls) < 2 {
		return 0, 0, false
	}
	sort.Slice(lvls, func(i, j int) bool { return lvls[i].mean < lvls[j].mean })
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

// refTrain grows f's trees again the pre-rewrite way: a fresh RNG,
// bootstrap sample and in-bag mask per tree, one after the other.
func refTrain(f *Forest) []*regTree {
	cfg, n := f.cfg, f.ds.NumRows()
	trees := make([]*regTree, cfg.NumTrees)
	for t := range trees {
		rng := sim.NewRNG(cfg.Seed + int64(t)*0x9E3779B9)
		rows := make([]int, n)
		inBag := make([]bool, n)
		for i := range rows {
			r := rng.Intn(n)
			rows[i] = r
			inBag[r] = true
		}
		b := &refBuilder{ds: f.ds, cfg: cfg, rng: rng}
		tree := b.grow(rows)
		for i := 0; i < n; i++ {
			if !inBag[i] {
				tree.oob = append(tree.oob, i)
			}
		}
		trees[t] = tree
	}
	return trees
}

// refImportance is Forest.Importance before its buffers were hoisted.
func refImportance(f *Forest, seed int64) []ImportanceResult {
	p := f.schema.NumFeatures()
	incSSE := make([]float64, p)
	counts := make([]int, p)
	baseSSE := make([]float64, p)
	rng := sim.NewRNG(seed)
	for _, tr := range f.trees {
		if len(tr.oob) < 2 {
			continue
		}
		// Baseline SSE of this tree on its OOB rows.
		var base float64
		for _, r := range tr.oob {
			d := tr.predict(f.ds.X[r], f.schema.Kinds) - f.ds.Y[r]
			base += d * d
		}
		row := make([]float64, p)
		perm := make([]int, len(tr.oob))
		for j := 0; j < p; j++ {
			copy(perm, rng.Perm(len(tr.oob)))
			var sse float64
			for k, r := range tr.oob {
				copy(row, f.ds.X[r])
				row[j] = f.ds.X[tr.oob[perm[k]]][j]
				d := tr.predict(row, f.schema.Kinds) - f.ds.Y[r]
				sse += d * d
			}
			incSSE[j] += sse - base
			baseSSE[j] += base
			counts[j] += len(tr.oob)
		}
	}
	out := make([]ImportanceResult, p)
	for j := 0; j < p; j++ {
		var pct float64
		if baseSSE[j] > 0 {
			pct = 100 * incSSE[j] / baseSSE[j]
		}
		out[j] = ImportanceResult{Feature: f.schema.Names[j], PctIncMSE: pct}
	}
	return out
}

// bitsEqual compares float slices by bit pattern.
func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// diffForest reports the first difference between f's trees and the
// reference's, or "".
func diffForest(f *Forest) string {
	for t, want := range refTrain(f) {
		got := f.trees[t]
		if len(got.nodes) != len(want.nodes) {
			return fmt.Sprintf("tree %d: %d nodes, reference has %d", t, len(got.nodes), len(want.nodes))
		}
		for i := range want.nodes {
			g, w := got.nodes[i], want.nodes[i]
			if g.feature != w.feature || g.catLeft != w.catLeft || g.left != w.left || g.right != w.right ||
				math.Float64bits(g.threshold) != math.Float64bits(w.threshold) ||
				math.Float64bits(g.value) != math.Float64bits(w.value) {
				return fmt.Sprintf("tree %d node %d: %+v, reference %+v", t, i, g, w)
			}
		}
		if !bitsEqual(got.gain, want.gain) {
			return fmt.Sprintf("tree %d: gain %v, reference %v", t, got.gain, want.gain)
		}
		if !slices.Equal(got.oob, want.oob) {
			return fmt.Sprintf("tree %d: oob %v, reference %v", t, got.oob, want.oob)
		}
	}
	return ""
}

// adversarialDataset draws a dataset built to expose any change in
// sort or partition order: numeric covariates on coarse integer grids
// (long tie groups, like taxa counts and rate categories), one
// constant column, categorical columns of differing cardinality,
// responses either continuous or on a coarse grid, and a share of rows
// that are exact duplicates of earlier ones.
func adversarialDataset(rng *sim.RNG) *Dataset {
	n := 20 + rng.Intn(120)
	numeric := 2 + rng.Intn(4)
	categorical := 1 + rng.Intn(3)
	schema := &Schema{}
	levels := make([]int, numeric+categorical)
	for j := range levels {
		schema.Names = append(schema.Names, fmt.Sprintf("x%d", j))
		if j < numeric {
			schema.Kinds = append(schema.Kinds, Numeric)
			levels[j] = []int{1, 2, 3, 5, 12, 1000}[rng.Intn(6)]
		} else {
			schema.Kinds = append(schema.Kinds, Categorical)
			levels[j] = []int{2, 3, 7, maxCategories}[rng.Intn(4)]
		}
	}
	gridY := rng.Bool(0.25)
	ds := &Dataset{Schema: schema}
	for i := 0; i < n; i++ {
		if i > 0 && rng.Bool(0.25) {
			d := rng.Intn(i)
			ds.X = append(ds.X, slices.Clone(ds.X[d]))
			ds.Y = append(ds.Y, ds.Y[d])
			continue
		}
		row := make([]float64, len(levels))
		var y float64
		for j, k := range levels {
			row[j] = float64(rng.Intn(k))
			y += row[j] * float64(j%3)
		}
		// Full-mantissa noise makes every sum round, so a change in
		// accumulation order shows; the grid keeps response ties (pure
		// nodes, equal SSEs) common.
		if gridY {
			y += math.Round(rng.Normal(0, 2)*2) / 2
		} else {
			y += rng.Normal(0, 2)
		}
		ds.X = append(ds.X, row)
		ds.Y = append(ds.Y, y)
	}
	return ds
}

// TestBuilderMatchesReference grows forests over adversarial datasets
// across the configuration axes that reach the builder and requires
// every tree to equal the reference's node for node: feature,
// threshold bits, category mask, value bits, children, gain bits and
// OOB set — at one worker, at two, and at more workers than CPUs.
func TestBuilderMatchesReference(t *testing.T) {
	rng := sim.NewRNG(20260928)
	for d := 0; d < 8; d++ {
		ds := adversarialDataset(rng)
		p := ds.Schema.NumFeatures()
		for _, mtry := range []int{0, 1, p} {
			for _, minLeaf := range []int{1, 5} {
				for _, maxDepth := range []int{0, 3} {
					for _, workers := range []int{1, 2, 8} {
						cfg := Config{NumTrees: 9, MTry: mtry, MinLeafSize: minLeaf, MaxDepth: maxDepth, Seed: int64(d), Workers: workers}
						f, err := Train(ds, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if diff := diffForest(f); diff != "" {
							t.Fatalf("dataset %d (%d rows × %d), %+v: %s", d, ds.NumRows(), p, cfg, diff)
						}
					}
				}
			}
		}
	}
}

// TestImportanceMatchesReference: hoisting Importance's buffers and
// drawing with PermInto must not move a bit of any feature's %IncMSE.
func TestImportanceMatchesReference(t *testing.T) {
	rng := sim.NewRNG(7)
	for d := 0; d < 4; d++ {
		f, err := Train(adversarialDataset(rng), Config{NumTrees: 25, MinLeafSize: 2, Seed: int64(d)})
		if err != nil {
			t.Fatal(err)
		}
		got, want := f.Importance(3), refImportance(f, 3)
		for j := range want {
			if got[j].Feature != want[j].Feature || math.Float64bits(got[j].PctIncMSE) != math.Float64bits(want[j].PctIncMSE) {
				t.Errorf("dataset %d feature %d: %+v, reference %+v", d, j, got[j], want[j])
			}
		}
	}
}
