package phylo

import (
	"sort"
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

func TestNewickRoundTrip(t *testing.T) {
	cases := []string{
		"((a:0.1,b:0.2):0.05,c:0.3,d:0.15);",
		"(a:1,b:2,(c:3,(d:4,e:5):0.5):0.25);",
	}
	for _, in := range cases {
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
}

func TestNewickErrors(t *testing.T) {
	bad := []string{
		"((a,b);",
		"(a:x,b:1,c:1);",
		"(a,b,c); trailing",
		"(,b,c);",
	}
	for _, in := range bad {
		if _, err := ParseNewick(in, nil); err == nil {
			t.Errorf("expected parse error for %q", in)
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
	step := stepwiseAdditionTree(lk, nil, al.Names, cfg, rng)
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
