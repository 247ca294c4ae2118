package phylo

import (
	"math"
	"testing"

	"lattice/internal/sim"
)

// referenceSPR is SPR as it was written before node-ID-indexed
// bookkeeping: a map of the subtree below every candidate and a map of
// hop counts. It is the oracle TestSPRMatchesReference holds SPR to.
func (t *Tree) referenceSPR(radius int, rng *sim.RNG) *Node {
	var cands []*Node
	total := t.NumTaxa()
	t.PostOrder(func(n *Node) {
		if n.Parent == nil {
			return
		}
		sz := 0
		for m := range referenceSubtree(n) {
			if m.IsLeaf() {
				sz++
			}
		}
		if total-sz >= 3 {
			cands = append(cands, n)
		}
	})
	if len(cands) == 0 {
		return nil
	}
	s := cands[rng.Intn(len(cands))]
	dist := referenceDistances(s.Parent)
	t.detach(s)
	inS := referenceSubtree(s)
	var targets []*Node
	t.PostOrder(func(n *Node) {
		if n.Parent == nil || inS[n] {
			return
		}
		if radius > 0 {
			if d, ok := dist[n]; !ok || d > radius {
				return
			}
		}
		targets = append(targets, n)
	})
	if len(targets) == 0 {
		t.PostOrder(func(n *Node) {
			if n.Parent != nil && !inS[n] {
				targets = append(targets, n)
			}
		})
	}
	target := targets[rng.Intn(len(targets))]
	t.attachAt(s, target, s.Length)
	t.reindex()
	return s
}

func referenceSubtree(s *Node) map[*Node]bool {
	set := make(map[*Node]bool)
	postOrder(s, func(n *Node) { set[n] = true })
	return set
}

func referenceDistances(start *Node) map[*Node]int {
	dist := map[*Node]int{start: 0}
	queue := []*Node{start}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		var adj []*Node
		if n.Parent != nil {
			adj = append(adj, n.Parent)
		}
		adj = append(adj, n.Children...)
		for _, m := range adj {
			if _, ok := dist[m]; !ok {
				dist[m] = dist[n] + 1
				queue = append(queue, m)
			}
		}
	}
	return dist
}

// TestSPRMatchesReference chains 2100 seeded moves on 8-, 20- and
// 50-taxon trees, unlimited and at the search's radius, through SPR and
// the reference side by side: after every move the two trees must
// print the same Newick, the moves must return the same node ID, and
// the two generators must be at the same point of their streams.
func TestSPRMatchesReference(t *testing.T) {
	const moves = 350
	for _, taxa := range []int{8, 20, 50} {
		for _, radius := range []int{0, sprRadius} {
			seed := int64(100*taxa + radius)
			got := RandomTree(TaxonNames(taxa), 0.1, sim.NewRNG(seed))
			want := got.Clone()
			gotRNG, wantRNG := sim.NewRNG(seed+1), sim.NewRNG(seed+1)
			for i := 0; i < moves; i++ {
				g, w := got.SPR(radius, gotRNG), want.referenceSPR(radius, wantRNG)
				if (g == nil) != (w == nil) || g != nil && g.ID != w.ID {
					t.Fatalf("%d taxa, radius %d, move %d: SPR returned %v, reference %v", taxa, radius, i, g, w)
				}
				if gn, wn := got.Newick(), want.Newick(); gn != wn {
					t.Fatalf("%d taxa, radius %d, move %d:\n got %s\nwant %s", taxa, radius, i, gn, wn)
				}
				if gd, wd := math.Float64bits(gotRNG.Float64()), math.Float64bits(wantRNG.Float64()); gd != wd {
					t.Fatalf("%d taxa, radius %d, move %d: next draw %x, reference %x", taxa, radius, i, gd, wd)
				}
				if err := got.Check(); err != nil {
					t.Fatalf("%d taxa, radius %d, move %d: %v", taxa, radius, i, err)
				}
			}
		}
	}
}
