package phylo

import (
	"fmt"

	"lattice/internal/sim"
)

// StartingTreeKind is how the initial tree of a search is produced —
// one of the nine runtime-model predictors (GARLI's streefname
// setting).
type StartingTreeKind int

const (
	// StartRandom: random topology with random branch lengths.
	StartRandom StartingTreeKind = iota
	// StartStepwise: stepwise-addition maximum-likelihood tree; each
	// taxon is attached at the best of AttachmentsPerTaxon candidate
	// branches. Much more expensive to build, usually a much better
	// starting point.
	StartStepwise
	// StartUser: the user supplied a starting tree file.
	StartUser
)

func (k StartingTreeKind) String() string {
	switch k {
	case StartRandom:
		return "random"
	case StartStepwise:
		return "stepwise"
	case StartUser:
		return "user"
	default:
		return fmt.Sprintf("StartingTreeKind(%d)", int(k))
	}
}

// ParseStartingTreeKind parses the portal's starting-tree choice.
func ParseStartingTreeKind(s string) (StartingTreeKind, error) {
	switch s {
	case "random":
		return StartRandom, nil
	case "stepwise":
		return StartStepwise, nil
	case "user":
		return StartUser, nil
	default:
		return 0, fmt.Errorf("phylo: unknown starting tree kind %q", s)
	}
}

// RandomTree builds a uniformly random unrooted topology over taxa
// names, with exponential branch lengths of the given mean.
func RandomTree(names []string, meanBranch float64, rng *sim.RNG) *Tree {
	if len(names) < 3 {
		panic("phylo: RandomTree needs at least 3 taxa")
	}
	t := &Tree{}
	root := t.newNode()
	t.Root = root
	bl := func() float64 { return rng.Exp(meanBranch) }
	leaf := func(i int) *Node {
		n := t.newNode()
		n.Taxon = i
		n.Name = names[i]
		n.Length = bl()
		return n
	}
	for i := 0; i < 3; i++ {
		c := leaf(i)
		c.Parent = root
		root.Children = append(root.Children, c)
	}
	for i := 3; i < len(names); i++ {
		// Pick a random existing edge (any non-root node).
		var edges []*Node
		t.PostOrder(func(n *Node) {
			if n.Parent != nil {
				edges = append(edges, n)
			}
		})
		target := edges[rng.Intn(len(edges))]
		t.attachAt(leaf(i), target, bl())
	}
	t.reindex()
	return t
}

// attachAt splits the edge above target with a new internal node and
// hangs leaf from it. The original branch length is divided evenly.
func (t *Tree) attachAt(leaf *Node, target *Node, innerLength float64) {
	parent := target.Parent
	mid := t.newNode()
	mid.Length = target.Length / 2
	target.Length /= 2
	// Replace target with mid in parent's child list.
	for i, c := range parent.Children {
		if c == target {
			parent.Children[i] = mid
			break
		}
	}
	mid.Parent = parent
	mid.Children = []*Node{target, leaf}
	target.Parent = mid
	leaf.Parent = mid
	if innerLength > 0 {
		leaf.Length = innerLength
	}
}

// detach removes the subtree rooted at s from the tree, splicing out
// its parent, and returns s. The tree is left structurally valid but
// with stale indices; callers must reindex after regrafting.
func (t *Tree) detach(s *Node) {
	p := s.Parent
	s.Parent = nil
	rest := p.Children[:0]
	for _, c := range p.Children {
		if c != s {
			rest = append(rest, c)
		}
	}
	p.Children = rest
	if p == t.Root {
		t.normalizeRoot()
		return
	}
	if len(p.Children) == 1 {
		// Splice p out: its only child joins p's parent directly.
		only := p.Children[0]
		only.Length += p.Length
		only.Parent = p.Parent
		for i, c := range p.Parent.Children {
			if c == p {
				p.Parent.Children[i] = only
				break
			}
		}
	}
}

// normalizeRoot restores the trifurcating-root convention after
// surgery left the root with fewer than three children.
func (t *Tree) normalizeRoot() {
	r := t.Root
	for len(r.Children) == 1 {
		only := r.Children[0]
		only.Parent = nil
		only.Length = 0
		t.Root = only
		r = only
	}
	if len(r.Children) == 2 {
		// Absorb an internal child to regain the trifurcation.
		var internal *Node
		for _, c := range r.Children {
			if !c.IsLeaf() {
				internal = c
				break
			}
		}
		if internal == nil {
			return // two-leaf tree; nothing to do
		}
		var other *Node
		for _, c := range r.Children {
			if c != internal {
				other = c
			}
		}
		other.Length += internal.Length
		newKids := []*Node{other}
		for _, gc := range internal.Children {
			gc.Parent = r
			newKids = append(newKids, gc)
		}
		r.Children = newKids
	}
}

// NNI performs a random nearest-neighbour interchange: for an internal
// edge (parent p — child c), it swaps a random child of c with a
// random sibling of c. It returns the edge node whose neighbourhood
// changed (c), or nil if the tree has no internal edges (fewer than 4
// taxa) — callers typically re-optimize that branch next.
func (t *Tree) NNI(rng *sim.RNG) *Node {
	edges := t.InternalEdges()
	if len(edges) == 0 {
		return nil
	}
	c := edges[rng.Intn(len(edges))]
	p := c.Parent
	var siblings []*Node
	for _, s := range p.Children {
		if s != c {
			siblings = append(siblings, s)
		}
	}
	if len(siblings) == 0 || len(c.Children) == 0 {
		return nil
	}
	a := c.Children[rng.Intn(len(c.Children))]
	b := siblings[rng.Intn(len(siblings))]
	// Swap a and b between c and p.
	for i, x := range c.Children {
		if x == a {
			c.Children[i] = b
		}
	}
	for i, x := range p.Children {
		if x == b {
			p.Children[i] = a
		}
	}
	a.Parent = p
	b.Parent = c
	return c
}

// SPR performs a random subtree-prune-regraft move with the given
// radius limit: the pruned subtree is reattached to an edge at most
// radius steps from the original attachment point (0 = unlimited).
// It returns the root of the pruned subtree (whose branch joins the
// new attachment), or nil when no legal move exists.
func (t *Tree) SPR(radius int, rng *sim.RNG) *Node {
	// Candidate subtrees: any non-root node whose removal leaves
	// at least 3 taxa outside. leaves[id] counts the taxa below node id.
	total := t.NumTaxa()
	leaves := make([]int, len(t.Nodes))
	cands := make([]*Node, 0, len(t.Nodes))
	t.PostOrder(func(n *Node) {
		if n.IsLeaf() {
			leaves[n.ID] = 1
		}
		for _, c := range n.Children {
			leaves[n.ID] += leaves[c.ID]
		}
		if n.Parent != nil && total-leaves[n.ID] >= 3 {
			cands = append(cands, n)
		}
	})
	if len(cands) == 0 {
		return nil
	}
	s := cands[rng.Intn(len(cands))]
	dist := distancesFrom(t, s.Parent)
	t.detach(s)
	// Candidate regraft edges: nodes with a parent, outside s's subtree.
	inS := make([]bool, len(t.Nodes))
	postOrder(s, func(n *Node) { inS[n.ID] = true })
	targets := cands[:0] // the candidates are spent; reuse their array
	t.PostOrder(func(n *Node) {
		if n.Parent == nil || inS[n.ID] {
			return
		}
		if radius > 0 && (dist[n.ID] < 0 || dist[n.ID] > radius) {
			return
		}
		targets = append(targets, n)
	})
	if len(targets) == 0 {
		// No target within radius; fall back to any edge.
		t.PostOrder(func(n *Node) {
			if n.Parent != nil && !inS[n.ID] {
				targets = append(targets, n)
			}
		})
	}
	target := targets[rng.Intn(len(targets))]
	t.attachAt(s, target, s.Length)
	t.reindex()
	return s
}

// distancesFrom returns hop counts from start to every node, indexed
// by node ID and treating the tree as an undirected graph; -1 marks a
// node start does not reach.
func distancesFrom(t *Tree, start *Node) []int {
	dist := make([]int, len(t.Nodes))
	for i := range dist {
		dist[i] = -1
	}
	dist[start.ID] = 0
	queue := append(make([]*Node, 0, len(t.Nodes)), start)
	visit := func(from, m *Node) {
		if dist[m.ID] < 0 {
			dist[m.ID] = dist[from.ID] + 1
			queue = append(queue, m)
		}
	}
	for i := 0; i < len(queue); i++ {
		n := queue[i]
		if n.Parent != nil {
			visit(n, n.Parent)
		}
		for _, m := range n.Children {
			visit(n, m)
		}
	}
	return dist
}
