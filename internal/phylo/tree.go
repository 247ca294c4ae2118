package phylo

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Node is a vertex of a phylogenetic tree. Leaf nodes carry a taxon
// index into the alignment; internal nodes have two or more children.
// Branch lengths are stored on the child end of each edge, in expected
// substitutions per site.
type Node struct {
	ID       int // stable index within the tree's node slice
	Taxon    int // taxon index for leaves; -1 for internal nodes
	Name     string
	Length   float64
	Parent   *Node
	Children []*Node
}

// IsLeaf reports whether the node is a tip.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Tree is a phylogenetic tree. The root is a trifurcation for unrooted
// ML trees (the GARLI convention); likelihood is invariant to the
// chosen root under reversible models.
type Tree struct {
	Root  *Node
	Nodes []*Node // all nodes; Nodes[i].ID == i

	// uid is the tree object's process-unique identity, assigned
	// lazily by UID. Caching engines key per-tree state on it; unlike
	// the pointer itself it is never reused after garbage collection,
	// so cache hit patterns are deterministic.
	uid atomic.Uint64
}

// treeUIDs issues process-unique tree identities. Only uniqueness
// matters — a cache keyed by UID hits exactly when the same tree
// object is seen again, regardless of the counter's absolute values.
var treeUIDs atomic.Uint64

// UID returns the tree object's unique identity, assigning one on
// first use. Safe for concurrent callers; all of them observe the same
// value. Clones get fresh identities — a UID follows the object, not
// the topology.
func (t *Tree) UID() uint64 {
	if u := t.uid.Load(); u != 0 {
		return u
	}
	t.uid.CompareAndSwap(0, treeUIDs.Add(1))
	return t.uid.Load()
}

// NumTaxa returns the number of leaves.
func (t *Tree) NumTaxa() int {
	n := 0
	for _, nd := range t.Nodes {
		if nd.IsLeaf() {
			n++
		}
	}
	return n
}

// newNode appends a fresh node to the tree and returns it.
func (t *Tree) newNode() *Node {
	n := &Node{ID: len(t.Nodes), Taxon: -1}
	t.Nodes = append(t.Nodes, n)
	return n
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	c := &Tree{}
	c.Nodes = make([]*Node, len(t.Nodes))
	for i, n := range t.Nodes {
		c.Nodes[i] = &Node{ID: n.ID, Taxon: n.Taxon, Name: n.Name, Length: n.Length}
	}
	for i, n := range t.Nodes {
		cn := c.Nodes[i]
		if n.Parent != nil {
			cn.Parent = c.Nodes[n.Parent.ID]
		}
		for _, ch := range n.Children {
			cn.Children = append(cn.Children, c.Nodes[ch.ID])
		}
	}
	c.Root = c.Nodes[t.Root.ID]
	return c
}

// PostOrder visits every node children-first and calls fn on each.
func (t *Tree) PostOrder(fn func(*Node)) {
	var walk func(*Node)
	walk = func(n *Node) {
		for _, c := range n.Children {
			walk(c)
		}
		fn(n)
	}
	walk(t.Root)
}

// Leaves returns the tree's leaf nodes in post-order.
func (t *Tree) Leaves() []*Node {
	var out []*Node
	t.PostOrder(func(n *Node) {
		if n.IsLeaf() {
			out = append(out, n)
		}
	})
	return out
}

// InternalEdges returns the child nodes of internal (non-root,
// non-leaf) edges — the edges eligible for NNI.
func (t *Tree) InternalEdges() []*Node {
	var out []*Node
	t.PostOrder(func(n *Node) {
		if !n.IsLeaf() && n.Parent != nil {
			out = append(out, n)
		}
	})
	return out
}

// Check verifies structural invariants: parent/child links are
// mutually consistent, IDs index the node slice, the root has no
// parent, and branch lengths are finite and non-negative. It is used
// by property tests after random topology moves.
//
//lint:allow deadexport -- the structural oracle of internal/beagle's tests: README "Performance" has property tests pin the two engines together, and a search result must first be a well-formed tree
func (t *Tree) Check() error {
	if t.Root == nil {
		return fmt.Errorf("phylo: tree has no root")
	}
	if t.Root.Parent != nil {
		return fmt.Errorf("phylo: root has a parent")
	}
	seen := make(map[int]bool)
	var err error
	t.PostOrder(func(n *Node) {
		if err != nil {
			return
		}
		if n.ID < 0 || n.ID >= len(t.Nodes) || t.Nodes[n.ID] != n {
			err = fmt.Errorf("phylo: node ID %d inconsistent with node slice", n.ID)
			return
		}
		if seen[n.ID] {
			err = fmt.Errorf("phylo: node %d reached twice (cycle)", n.ID)
			return
		}
		seen[n.ID] = true
		if n.Length < 0 || math.IsNaN(n.Length) || math.IsInf(n.Length, 0) {
			err = fmt.Errorf("phylo: node %d has invalid branch length %v", n.ID, n.Length)
			return
		}
		for _, c := range n.Children {
			if c.Parent != n {
				err = fmt.Errorf("phylo: child %d does not point back to parent %d", c.ID, n.ID)
				return
			}
		}
	})
	return err
}

// Newick serializes the tree in Newick format with branch lengths.
func (t *Tree) Newick() string {
	var b strings.Builder
	var walk func(*Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			b.WriteString(escapeNewickName(n.Name))
		} else {
			b.WriteByte('(')
			for i, c := range n.Children {
				if i > 0 {
					b.WriteByte(',')
				}
				walk(c)
			}
			b.WriteByte(')')
		}
		if n.Parent != nil {
			fmt.Fprintf(&b, ":%.8g", n.Length)
		}
	}
	walk(t.Root)
	b.WriteByte(';')
	return b.String()
}

func escapeNewickName(s string) string {
	if strings.ContainsAny(s, " ():,;'") {
		return "'" + strings.ReplaceAll(s, "'", "''") + "'"
	}
	return s
}

// ParseNewick parses a Newick string. Taxon indices are assigned by
// looking names up in taxonIndex; pass nil to assign indices in order
// of appearance.
func ParseNewick(s string, taxonIndex map[string]int) (*Tree, error) {
	p := &newickParser{s: s, taxa: taxonIndex}
	t := &Tree{}
	root, err := p.parseSubtree(t)
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos < len(p.s) && p.s[p.pos] == ';' {
		p.pos++
	}
	p.skipSpace()
	if p.pos != len(p.s) {
		return nil, fmt.Errorf("phylo: trailing characters in Newick at offset %d", p.pos)
	}
	t.Root = root
	return t, nil
}

type newickParser struct {
	s    string
	pos  int
	taxa map[string]int
	next int
}

func (p *newickParser) skipSpace() {
	for p.pos < len(p.s) && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t' || p.s[p.pos] == '\n' || p.s[p.pos] == '\r') {
		p.pos++
	}
}

func (p *newickParser) parseSubtree(t *Tree) (*Node, error) {
	p.skipSpace()
	n := t.newNode()
	if p.pos < len(p.s) && p.s[p.pos] == '(' {
		p.pos++
		for {
			child, err := p.parseSubtree(t)
			if err != nil {
				return nil, err
			}
			child.Parent = n
			n.Children = append(n.Children, child)
			p.skipSpace()
			if p.pos >= len(p.s) {
				return nil, fmt.Errorf("phylo: unterminated Newick group")
			}
			if p.s[p.pos] == ',' {
				p.pos++
				continue
			}
			if p.s[p.pos] == ')' {
				p.pos++
				break
			}
			return nil, fmt.Errorf("phylo: unexpected %q in Newick at offset %d", p.s[p.pos], p.pos)
		}
	}
	// Optional label.
	name := p.parseName()
	if name != "" {
		n.Name = name
		if n.IsLeaf() {
			if p.taxa != nil {
				idx, ok := p.taxa[name]
				if !ok {
					return nil, fmt.Errorf("phylo: Newick taxon %q not in alignment", name)
				}
				n.Taxon = idx
			} else {
				n.Taxon = p.next
				p.next++
			}
		}
	} else if n.IsLeaf() {
		return nil, fmt.Errorf("phylo: unnamed leaf in Newick at offset %d", p.pos)
	}
	// Optional branch length.
	p.skipSpace()
	if p.pos < len(p.s) && p.s[p.pos] == ':' {
		p.pos++
		start := p.pos
		for p.pos < len(p.s) && strings.ContainsRune("0123456789+-.eE", rune(p.s[p.pos])) {
			p.pos++
		}
		v, err := strconv.ParseFloat(p.s[start:p.pos], 64)
		if err != nil {
			return nil, fmt.Errorf("phylo: bad branch length in Newick at offset %d: %w", start, err)
		}
		if v < 0 {
			v = 0
		}
		n.Length = v
	}
	return n, nil
}

func (p *newickParser) parseName() string {
	p.skipSpace()
	if p.pos >= len(p.s) {
		return ""
	}
	if p.s[p.pos] == '\'' {
		p.pos++
		var b strings.Builder
		for p.pos < len(p.s) {
			if p.s[p.pos] == '\'' {
				if p.pos+1 < len(p.s) && p.s[p.pos+1] == '\'' {
					b.WriteByte('\'')
					p.pos += 2
					continue
				}
				p.pos++
				break
			}
			b.WriteByte(p.s[p.pos])
			p.pos++
		}
		return b.String()
	}
	start := p.pos
	for p.pos < len(p.s) && !strings.ContainsRune("():,;'", rune(p.s[p.pos])) &&
		p.s[p.pos] != ' ' && p.s[p.pos] != '\t' && p.s[p.pos] != '\n' {
		p.pos++
	}
	return p.s[start:p.pos]
}

// reindex rebuilds the node slice and IDs after structural surgery
// removed nodes from the tree.
func (t *Tree) reindex() {
	var nodes []*Node
	t.PostOrder(func(n *Node) {
		n.ID = len(nodes)
		nodes = append(nodes, n)
	})
	t.Nodes = nodes
}

// Bipartition is a canonical encoding of the taxon split induced by an
// internal edge, used for consensus trees and topology comparison. It
// is the sorted list of taxa on the child side, flipped if needed so
// that taxon 0 is never included (canonical orientation).
type Bipartition string

// Bipartitions returns the set of non-trivial splits of the tree,
// keyed by canonical encoding.
func (t *Tree) Bipartitions() map[Bipartition]bool {
	total := t.NumTaxa()
	out := make(map[Bipartition]bool)
	var walk func(n *Node) []int
	walk = func(n *Node) []int {
		if n.IsLeaf() {
			return []int{n.Taxon}
		}
		var below []int
		for _, c := range n.Children {
			below = append(below, walk(c)...)
		}
		if n.Parent != nil && len(below) >= 2 && total-len(below) >= 2 {
			out[canonicalSplit(below, total)] = true
		}
		return below
	}
	walk(t.Root)
	return out
}

// canonicalSplit encodes one side of a split canonically.
func canonicalSplit(side []int, total int) Bipartition {
	in := make(map[int]bool, len(side))
	for _, x := range side {
		in[x] = true
	}
	chosen := side
	if in[0] {
		chosen = chosen[:0:0]
		for i := 0; i < total; i++ {
			if !in[i] {
				chosen = append(chosen, i)
			}
		}
	}
	s := append([]int(nil), chosen...)
	sort.Ints(s)
	var b strings.Builder
	for i, x := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(x))
	}
	return Bipartition(b.String())
}

// RFDistance returns the Robinson–Foulds distance (number of splits
// present in exactly one tree) between t and u, which must be over the
// same taxon set.
func (t *Tree) RFDistance(u *Tree) int {
	a, b := t.Bipartitions(), u.Bipartitions()
	d := 0
	for s := range a {
		if !b[s] {
			d++
		}
	}
	for s := range b {
		if !a[s] {
			d++
		}
	}
	return d
}
