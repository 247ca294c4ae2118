package beagle

import (
	"fmt"
	"math"
	"testing"

	"lattice/internal/phylo"
)

// The engine's resident footprint: what a warm engine allocates (nothing),
// how many partials buffers a traversal keeps, what a transition-cache
// entry holds, and how many entries the cache may keep.

func newEngine(t testing.TB, fx *fixture, incremental bool) *Engine {
	t.Helper()
	eng, err := New(fx.data, fx.model, fx.rates)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetIncremental(incremental)
	return eng
}

func TestWarmEngineAllocatesNothing(t *testing.T) {
	for _, dt := range []phylo.DataType{phylo.Nucleotide, phylo.AminoAcid} {
		fx := newFixture(t, 31, dt, 4, 12, 120)
		for _, incremental := range []bool{true, false} {
			eng := newEngine(t, fx, incremental)
			eng.LogLikelihood(fx.tree)
			eng.LogLikelihood(fx.tree) // the second pass settles the free list's capacity
			if n := testing.AllocsPerRun(20, func() { eng.LogLikelihood(fx.tree) }); n != 0 {
				t.Errorf("%v states, incremental=%v: %v allocs per repeat LogLikelihood, want 0",
					dt.NumStates(), incremental, n)
			}
		}
	}
}

// liveBufs counts the partials buffers an engine keeps alive: those its
// banks reference and those on its free list.
func liveBufs(e *Engine) int {
	seen := map[*claBuf]bool{}
	for _, bk := range e.banks {
		for _, b := range bk.bufs {
			if b != nil {
				seen[b] = true
			}
		}
	}
	return len(seen) + len(e.freeBufs)
}

// caterpillar is the ladder tree over the first n taxon names: every
// internal node has at most one internal child.
func caterpillar(t testing.TB, n int) *phylo.Tree {
	t.Helper()
	names := phylo.TaxonNames(n)
	index := make(map[string]int, n)
	for i, name := range names {
		index[name] = i
	}
	s := fmt.Sprintf("(%s:0.1,%s:0.1)", names[0], names[1])
	for i := 2; i < n-2; i++ {
		s = fmt.Sprintf("(%s:0.05,%s:0.1)", s, names[i])
	}
	s = fmt.Sprintf("(%s:0.05,%s:0.1,%s:0.1);", s, names[n-2], names[n-1])
	tr, err := phylo.ParseNewick(s, index)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestFullTraversalHoldsFrontier(t *testing.T) {
	fx := newFixture(t, 50, phylo.AminoAcid, 4, 50, 60)
	ladder := caterpillar(t, 50)
	ref, err := phylo.NewLikelihood(fx.data, fx.model, fx.rates)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		tree *phylo.Tree
		ok   func(live int) bool
		want string
	}{
		{"random", fx.tree, func(live int) bool { return live >= 2 && live <= 12 }, "2..12"},
		{"caterpillar", ladder, func(live int) bool { return live == 2 }, "2"},
	} {
		full := newEngine(t, fx, false)
		got := full.LogLikelihood(c.tree)
		if live := liveBufs(full); !c.ok(live) {
			t.Errorf("%s, incremental off: %d live partials buffers after one traversal, want %s", c.name, live, c.want)
		}
		if full.bankBytes != 0 {
			t.Errorf("%s, incremental off: %d bank bytes still accounted after the traversal, want 0", c.name, full.bankBytes)
		}
		// The frontier is recycled, not regrown, and gives the same score.
		before := liveBufs(full)
		if again := full.LogLikelihood(c.tree); again != got || liveBufs(full) != before {
			t.Errorf("%s, incremental off: repeat traversal %v with %d buffers, first %v with %d", c.name, again, liveBufs(full), got, before)
		}
		inc := newEngine(t, fx, true)
		if kept := inc.LogLikelihood(c.tree); kept != got {
			t.Errorf("%s: incremental %v != full traversal %v", c.name, kept, got)
		}
		if live, want := liveBufs(inc), len(c.tree.Nodes)-c.tree.NumTaxa(); live != want {
			t.Errorf("%s, incremental on: %d live partials buffers, want one per internal node (%d)", c.name, live, want)
		}
		if want := ref.LogLikelihood(c.tree); math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Errorf("%s: engine %v, reference %v", c.name, got, want)
		}
	}
}

func TestCacheEntriesHoldOneKind(t *testing.T) {
	fx := newFixture(t, 33, phylo.AminoAcid, 4, 10, 80)
	tr := fx.tree.Clone()
	const length = 0.07
	for _, n := range tr.Nodes {
		if n.Parent != nil {
			n.Length = length
		}
	}
	eng := newEngine(t, fx, true)
	got := eng.LogLikelihood(tr)
	if eng.pmats.size() != 2 || eng.CacheMisses != 2 {
		t.Fatalf("one length on both kinds of edge: %d entries after %d misses, want 2 and 2", eng.pmats.size(), eng.CacheMisses)
	}
	S, C := eng.nStates, eng.nCats
	leaf, ok1 := eng.pmats.get(length, true)
	inner, ok2 := eng.pmats.get(length, false)
	if !ok1 || !ok2 {
		t.Fatalf("entries missing: leaf edge %v, internal edge %v", ok1, ok2)
	}
	if leaf.mats != nil || len(leaf.tips) != C*S*(S+1) {
		t.Errorf("leaf-edge entry: %d matrix and %d tip-table floats, want 0 and %d", len(leaf.mats), len(leaf.tips), C*S*(S+1))
	}
	if inner.tips != nil || len(inner.mats) != C*S*S {
		t.Errorf("internal-edge entry: %d matrix and %d tip-table floats, want %d and 0", len(inner.mats), len(inner.tips), C*S*S)
	}

	// The tables of a leaf-edge entry are those of the matrices an
	// internal-edge entry of the same length holds.
	tips := make([]float64, C*S*(S+1))
	buildTipTables(inner.mats, tips, S, C)
	requireBitEqual(t, "leaf-edge tip tables", leaf.tips, tips)

	worker := newEngine(t, fx, true)
	worker.WarmStart(eng)
	wl, ok1 := worker.pmats.get(length, true)
	wi, ok2 := worker.pmats.get(length, false)
	if worker.pmats.size() != 2 || !ok1 || !ok2 {
		t.Fatalf("WarmStart shared %d entries (leaf edge %v, internal edge %v), want both", worker.pmats.size(), ok1, ok2)
	}
	if &wl.tips[0] != &leaf.tips[0] || wl.mats != nil || &wi.mats[0] != &inner.mats[0] || wi.tips != nil {
		t.Error("WarmStart copied or reshaped an entry instead of sharing its one buffer")
	}
	if !leaf.shared || !inner.shared || !wl.shared || !wi.shared {
		t.Error("a shared entry is not marked shared on both sides")
	}
	if w := worker.LogLikelihood(tr); w != got || worker.CacheMisses != 0 {
		t.Errorf("warm-started engine scored %v with %d misses, parent %v", w, worker.CacheMisses, got)
	}

	ref, err := phylo.NewLikelihood(fx.data, fx.model, fx.rates)
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.LogLikelihood(tr); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("equal-length tree: engine %v (%x), reference %v (%x)", got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestTransitionCacheBoundedByBytes: the entry bound follows the entry
// size, so a codon engine's transition cache stays inside the budget
// the partials beside it honour, whatever lengths it is fed.
func TestTransitionCacheBoundedByBytes(t *testing.T) {
	for _, c := range []struct{ S, C, want int }{
		{4, 4, pmatMaxCap}, {20, 4, pmatMaxCap}, {61, 1, 2218}, {61, 4, 554}, {61, 4000, pmatMinCap},
	} {
		if got := pmatCapacity(c.S, c.C); got != c.want {
			t.Errorf("pmatCapacity(%d states, %d cats) = %d, want %d", c.S, c.C, got, c.want)
		}
	}

	fx := newFixture(t, 35, phylo.Codon, 4, 5, 30)
	eng := newEngine(t, fx, true)
	if eng.pmats.cap != 554 {
		t.Fatalf("codon +Γ4 engine: cache capacity %d, want 554", eng.pmats.cap)
	}
	for i := 1; i <= 1000; i++ {
		eng.transition(float64(i)/1000, i%2 == 0)
	}
	var resident int
	for e := eng.pmats.root.next; e != &eng.pmats.root; e = e.next {
		resident += (len(e.mats) + len(e.tips)) * 8
	}
	if eng.pmats.size() != 554 || resident > pmatBudget {
		t.Errorf("after 1000 lengths: %d entries holding %d bytes, want 554 within %d", eng.pmats.size(), resident, pmatBudget)
	}
	if eng.pmats.evictions != 1000-554 || eng.pmats.recycled == 0 {
		t.Errorf("%d evictions, %d recycled buffers; want %d and some", eng.pmats.evictions, eng.pmats.recycled, 1000-554)
	}
	fresh := newEngine(t, fx, true)
	if got, want := eng.LogLikelihood(fx.tree), fresh.LogLikelihood(fx.tree); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("after eviction and recycling: %v, fresh engine %v", got, want)
	}
}
