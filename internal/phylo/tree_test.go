package phylo

import (
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"lattice/internal/sim"
)

func taxonSet(t *Tree) []int {
	var out []int
	for _, l := range t.Leaves() {
		out = append(out, l.Taxon)
	}
	sort.Ints(out)
	return out
}

// newickInputs and newickErrorInputs are the trees the Newick tests
// parse and the ones they must refuse; FuzzParseNewick starts from
// both.
var (
	newickInputs = []string{
		"((a:0.1,b:0.2):0.05,c:0.3,d:0.15);",
		"(a:1,b:2,(c:3,(d:4,e:5):0.5):0.25);",
		"('taxon one':0.1,'it''s':0.2,c:0.3);",
		"((a:1,b:1):1,(c:1,d:1):1,e:1);",
	}
	newickErrorInputs = []string{
		"((a,b);",
		"(a:x,b:1,c:1);",
		"(a,b,c); trailing",
		"(,b,c);",
	}
)

func TestNewickRoundTrip(t *testing.T) {
	for _, in := range newickInputs {
		tr, err := ParseNewick(in, nil)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		out := tr.Newick()
		tr2, err := ParseNewick(out, nil)
		if err != nil {
			t.Fatalf("reparse %q: %v", out, err)
		}
		if tr2.Newick() != out {
			t.Errorf("round trip unstable: %q → %q", out, tr2.Newick())
		}
	}
}

func TestNewickQuotedNames(t *testing.T) {
	tr, err := ParseNewick("('taxon one':0.1,'it''s':0.2,c:0.3);", nil)
	if err != nil {
		t.Fatal(err)
	}
	leaves := tr.Leaves()
	if leaves[0].Name != "taxon one" || leaves[1].Name != "it's" {
		t.Errorf("quoted names parsed as %q, %q", leaves[0].Name, leaves[1].Name)
	}
	// Round trip preserves quoting.
	tr2, err := ParseNewick(tr.Newick(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Leaves()[1].Name != "it's" {
		t.Errorf("requoted name = %q", tr2.Leaves()[1].Name)
	}
}

func TestNewickTaxonIndexLookup(t *testing.T) {
	idx := map[string]int{"x": 5, "y": 2, "z": 9}
	tr, err := ParseNewick("(x:1,y:1,z:1);", idx)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range tr.Leaves() {
		if l.Taxon != idx[l.Name] {
			t.Errorf("taxon %q index %d, want %d", l.Name, l.Taxon, idx[l.Name])
		}
	}
	if _, err := ParseNewick("(x:1,y:1,w:1);", idx); err == nil {
		t.Error("expected error for unknown taxon")
	}
	// A taxon placed twice (so another is missing) is refused by name.
	if _, err := ParseNewick("(x:1,x:1,z:1);", idx); err == nil || !strings.Contains(err.Error(), `"x"`) {
		t.Errorf("duplicate taxon: err = %v, want one naming \"x\"", err)
	}
}

func TestNewickErrors(t *testing.T) {
	for _, in := range newickErrorInputs {
		if _, err := ParseNewick(in, nil); err == nil {
			t.Errorf("expected parse error for %q", in)
		}
	}
}

// TestNewickQuotesEveryBreak: a name holding a byte that ends an
// unquoted name, or that the reader skips as space, must come back
// through Newick unchanged — checkpoint resume round-trips trees so.
func TestNewickQuotesEveryBreak(t *testing.T) {
	for _, name := range []string{"a\tb", "a\nb", "\ra", "a\r", "a b", "a(b", "it's"} {
		tr := &Tree{}
		tr.Root = tr.newNode()
		for _, leaf := range []string{name, "c", "d"} {
			n := tr.newNode()
			n.Name, n.Length, n.Parent = leaf, 1, tr.Root
			tr.Root.Children = append(tr.Root.Children, n)
		}
		back, err := ParseNewick(tr.Newick(), nil)
		if err != nil {
			t.Errorf("name %q: own Newick %q refused: %v", name, tr.Newick(), err)
			continue
		}
		if got := back.Root.Children[0].Name; got != name {
			t.Errorf("name %q came back as %q", name, got)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	tr, _ := ParseNewick("((a:0.1,b:0.2):0.05,c:0.3,d:0.15);", nil)
	cp := tr.Clone()
	cp.Root.Children[0].Length = 99
	if tr.Root.Children[0].Length == 99 {
		t.Error("clone shares nodes with original")
	}
	if err := cp.Check(); err != nil {
		t.Errorf("clone invalid: %v", err)
	}
	if cp.Newick() == "" || tr.NumTaxa() != cp.NumTaxa() {
		t.Error("clone structurally different")
	}
}

// childIDs lists each node's child IDs, in node order.
func childIDs(t *Tree) [][]int {
	out := make([][]int, len(t.Nodes))
	for i, n := range t.Nodes {
		for _, c := range n.Children {
			out[i] = append(out[i], c.ID)
		}
	}
	return out
}

// TestCloneSurgeryIndependence: surgery on a clone — NNI, SPR, a
// grafted leaf, an append to one node's children — leaves the original
// as it was, and the append reaches no other node's children in either
// tree, though a clone's child lists share one backing array.
func TestCloneSurgeryIndependence(t *testing.T) {
	rng := sim.NewRNG(3)
	orig := RandomTree(TaxonNames(12), 0.1, rng)
	want, wantKids := orig.Newick(), childIDs(orig)
	unchanged := func(what string) {
		t.Helper()
		if got := orig.Newick(); got != want {
			t.Fatalf("%s on a clone changed the original:\n got %s\nwant %s", what, got, want)
		}
		if err := orig.Check(); err != nil {
			t.Fatalf("%s on a clone: original %v", what, err)
		}
		if !slices.EqualFunc(childIDs(orig), wantKids, slices.Equal) {
			t.Fatalf("%s on a clone changed the original's child lists", what)
		}
	}
	graft := func(c *Tree) {
		target := c.Nodes[rng.Intn(len(c.Nodes)-1)] // the root is last
		leaf := c.newNode()
		leaf.Taxon, leaf.Name = len(c.Nodes), "extra"
		c.attachAt(leaf, target, 0.1)
		c.reindex()
	}
	for _, m := range []struct {
		what string
		move func(*Tree)
	}{
		{"NNI", func(c *Tree) { c.NNI(rng) }},
		{"SPR", func(c *Tree) { c.SPR(sprRadius, rng) }},
		{"attachAt", graft},
	} {
		what, move := m.what, m.move
		c := orig.Clone()
		for i := 0; i < 10; i++ {
			move(c)
			if err := c.Check(); err != nil {
				t.Fatalf("%s on a clone: %v", what, err)
			}
			unchanged(what)
		}
	}
	for x, n := range orig.Nodes {
		if n.IsLeaf() {
			continue
		}
		c := orig.Clone()
		extra := &Node{ID: len(c.Nodes), Taxon: -1, Parent: c.Nodes[x]}
		c.Nodes = append(c.Nodes, extra)
		c.Nodes[x].Children = append(c.Nodes[x].Children, extra)
		unchanged("append")
		got := childIDs(c)
		for i := range wantKids {
			if i != x && !slices.Equal(got[i], wantKids[i]) {
				t.Fatalf("append to node %d's children changed node %d's: %v, want %v", x, i, got[i], wantKids[i])
			}
		}
	}
}

// TestTreeSurgeryAllocations pins the tree layer's allocations: Clone
// is four whatever the size, reindex one, and SPR a constant that does
// not grow with the number of taxa.
func TestTreeSurgeryAllocations(t *testing.T) {
	const sprAllocs = 8
	tr := RandomTree(TaxonNames(50), 0.1, sim.NewRNG(1))
	if n := testing.AllocsPerRun(100, func() { tr.Clone() }); n > 4 {
		t.Errorf("Clone of a 50-taxon tree: %v allocations, want ≤ 4", n)
	}
	if n := testing.AllocsPerRun(100, tr.reindex); n > 1 {
		t.Errorf("reindex of a 50-taxon tree: %v allocations, want ≤ 1", n)
	}
	for _, taxa := range []int{8, 50} {
		rng := sim.NewRNG(2)
		tr := RandomTree(TaxonNames(taxa), 0.1, rng)
		if n := testing.AllocsPerRun(200, func() { tr.SPR(sprRadius, rng) }); n > sprAllocs {
			t.Errorf("SPR on %d taxa: %v allocations, want ≤ %d", taxa, n, sprAllocs)
		}
	}
}

func TestRandomTreeValid(t *testing.T) {
	rng := sim.NewRNG(1)
	for _, n := range []int{3, 4, 8, 25} {
		tr := RandomTree(TaxonNames(n), 0.1, rng)
		if err := tr.Check(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.NumTaxa() != n {
			t.Fatalf("n=%d: got %d taxa", n, tr.NumTaxa())
		}
		if len(tr.Root.Children) != 3 {
			t.Errorf("n=%d: root degree %d, want 3", n, len(tr.Root.Children))
		}
	}
}

func TestNNIPreservesTaxa(t *testing.T) {
	f := func(seed int64) bool {
		rng := sim.NewRNG(seed)
		tr := RandomTree(TaxonNames(4+rng.Intn(12)), 0.1, rng)
		want := taxonSet(tr)
		for i := 0; i < 5; i++ {
			tr.NNI(rng)
		}
		if err := tr.Check(); err != nil {
			return false
		}
		got := taxonSet(tr)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSPRPreservesTaxa(t *testing.T) {
	f := func(seed int64) bool {
		rng := sim.NewRNG(seed)
		tr := RandomTree(TaxonNames(5+rng.Intn(12)), 0.1, rng)
		want := taxonSet(tr)
		for i := 0; i < 5; i++ {
			tr.SPR(3, rng)
		}
		if err := tr.Check(); err != nil {
			return false
		}
		got := taxonSet(tr)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestNNIChangesTopology(t *testing.T) {
	rng := sim.NewRNG(17)
	tr := RandomTree(TaxonNames(10), 0.1, rng)
	changed := false
	for i := 0; i < 10 && !changed; i++ {
		cp := tr.Clone()
		cp.NNI(rng)
		if tr.RFDistance(cp) > 0 {
			changed = true
		}
	}
	if !changed {
		t.Error("10 NNI moves never changed the topology")
	}
}

func TestBipartitionsAndRFDistance(t *testing.T) {
	idx := map[string]int{"a": 0, "b": 1, "c": 2, "d": 3, "e": 4}
	t1, _ := ParseNewick("((a:1,b:1):1,(c:1,d:1):1,e:1);", idx)
	t2, _ := ParseNewick("((a:1,c:1):1,(b:1,d:1):1,e:1);", idx)
	if d := t1.RFDistance(t1.Clone()); d != 0 {
		t.Errorf("self RF distance = %d", d)
	}
	if d := t1.RFDistance(t2); d != 4 {
		t.Errorf("RF distance = %d, want 4", d)
	}
	bp := t1.Bipartitions()
	if len(bp) != 2 {
		t.Errorf("5-taxon binary tree should have 2 non-trivial splits, got %d", len(bp))
	}
}

func TestRFDistanceInvariantToRooting(t *testing.T) {
	idx := map[string]int{"a": 0, "b": 1, "c": 2, "d": 3}
	t1, _ := ParseNewick("((a:1,b:1):1,c:1,d:1);", idx)
	t2, _ := ParseNewick("((c:1,d:1):1,a:1,b:1);", idx)
	if d := t1.RFDistance(t2); d != 0 {
		t.Errorf("same unrooted tree has RF distance %d", d)
	}
}

func TestStepwiseVsRandomStartQuality(t *testing.T) {
	// A stepwise-addition starting tree should fit the data at least
	// as well as a random one (this is its entire purpose, and the
	// reason attachmentspertaxon costs runtime).
	rng := sim.NewRNG(5)
	m, _ := NewJC69()
	rs, _ := NewSiteRates(RateHomogeneous, 0, 0, 1)
	names := TaxonNames(10)
	truth := RandomTree(names, 0.15, rng)
	al, err := SimulateAlignment(truth, m, rs, 300, rng)
	if err != nil {
		t.Fatal(err)
	}
	pd, _ := al.Compile()
	lk, _ := NewLikelihood(pd, m, rs)
	cfg := DefaultSearchConfig()
	cfg.AttachmentsPerTaxon = 8
	step := stepwiseAdditionTree(onePool(lk), al.Names, cfg, rng)
	if err := step.Check(); err != nil {
		t.Fatal(err)
	}
	lStep := lk.LogLikelihood(step)
	var lRandBest float64 = negInf
	for i := 0; i < 3; i++ {
		r := RandomTree(al.Names, 0.05, rng)
		if l := lk.LogLikelihood(r); l > lRandBest {
			lRandBest = l
		}
	}
	if lStep < lRandBest {
		t.Errorf("stepwise tree (%.2f) worse than best random (%.2f)", lStep, lRandBest)
	}
}
