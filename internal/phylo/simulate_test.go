package phylo

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"lattice/internal/sim"
)

func TestSimulateAlignmentShape(t *testing.T) {
	rng := sim.NewRNG(1)
	names := TaxonNames(6)
	tr := RandomTree(names, 0.1, rng)
	m, _ := NewJC69()
	rs, _ := NewSiteRates(RateHomogeneous, 0, 0, 1)
	al, err := SimulateAlignment(tr, m, rs, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if al.NumTaxa() != 6 || al.Length() != 100 {
		t.Fatalf("got %d × %d", al.NumTaxa(), al.Length())
	}
	if err := al.Validate(); err != nil {
		t.Errorf("simulated alignment invalid: %v", err)
	}
}

func TestSimulateCodonEmitsTriplets(t *testing.T) {
	rng := sim.NewRNG(2)
	tr := RandomTree(TaxonNames(4), 0.1, rng)
	m, err := NewGY94(2, 0.3, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := NewSiteRates(RateHomogeneous, 0, 0, 1)
	al, err := SimulateAlignment(tr, m, rs, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	if al.Length() != 60 {
		t.Fatalf("codon alignment length %d, want 60 nucleotides", al.Length())
	}
	pd, err := al.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if pd.NumSites != 20 {
		t.Errorf("compiled codon sites %d, want 20", pd.NumSites)
	}
	// No stop codons should ever be emitted.
	for _, seq := range al.Seqs {
		for i := 0; i < len(seq); i += 3 {
			if encodeCodon(seq[i], seq[i+1], seq[i+2]) == -1 {
				t.Fatalf("simulated stop/invalid codon %q", seq[i:i+3])
			}
		}
	}
}

func TestSimulateCompositionMatchesStationary(t *testing.T) {
	rng := sim.NewRNG(3)
	freqs := []float64{0.4, 0.1, 0.2, 0.3}
	m, err := NewHKY85(2, freqs)
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := NewSiteRates(RateHomogeneous, 0, 0, 1)
	tr := RandomTree(TaxonNames(8), 0.1, rng)
	al, err := SimulateAlignment(tr, m, rs, 3000, rng)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]float64, 4)
	var total float64
	for _, seq := range al.Seqs {
		for i := 0; i < len(seq); i++ {
			if s := encodeNucleotide(seq[i]); s >= 0 {
				counts[s]++
				total++
			}
		}
	}
	for i := range counts {
		got := counts[i] / total
		if math.Abs(got-freqs[i]) > 0.03 {
			t.Errorf("state %d frequency %.3f, want %.3f", i, got, freqs[i])
		}
	}
}

func TestSimulateDeterministicPerSeed(t *testing.T) {
	m, _ := NewJC69()
	rs, _ := NewSiteRates(RateGamma, 0.5, 0, 4)
	gen := func(seed int64) string {
		rng := sim.NewRNG(seed)
		tr := RandomTree(TaxonNames(5), 0.1, rng)
		al, err := SimulateAlignment(tr, m, rs, 50, rng)
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, s := range al.Seqs {
			out += s + "\n"
		}
		return out
	}
	if gen(42) != gen(42) {
		t.Error("same seed produced different alignments")
	}
	if gen(42) == gen(43) {
		t.Error("different seeds produced identical alignments")
	}
}

func TestSimulateErrors(t *testing.T) {
	rng := sim.NewRNG(4)
	m, _ := NewJC69()
	rs, _ := NewSiteRates(RateHomogeneous, 0, 0, 1)
	tr := RandomTree(TaxonNames(4), 0.1, rng)
	if _, err := SimulateAlignment(tr, m, rs, 0, rng); err == nil {
		t.Error("expected error for zero sites")
	}
}

func TestConsensusOfIdenticalTrees(t *testing.T) {
	idx := map[string]int{"a": 0, "b": 1, "c": 2, "d": 3, "e": 4}
	names := []string{"a", "b", "c", "d", "e"}
	tr, _ := ParseNewick("((a:1,b:1):1,(c:1,d:1):1,e:1);", idx)
	sup := NewSplitSupport([]*Tree{tr, tr.Clone(), tr.Clone()})
	cons, err := sup.MajorityRuleConsensus(names)
	if err != nil {
		t.Fatal(err)
	}
	if d := cons.RFDistance(tr); d != 0 {
		t.Errorf("consensus of identical trees differs from them: RF=%d\ncons=%s", d, cons.Newick())
	}
	for bp := range tr.Bipartitions() {
		if s := sup.Support(bp); s != 1 {
			t.Errorf("split support %v, want 1", s)
		}
	}
}

func TestConsensusMajorityOnly(t *testing.T) {
	idx := map[string]int{"a": 0, "b": 1, "c": 2, "d": 3, "e": 4}
	names := []string{"a", "b", "c", "d", "e"}
	t1, _ := ParseNewick("((a:1,b:1):1,(c:1,d:1):1,e:1);", idx)
	t2, _ := ParseNewick("((a:1,b:1):1,(c:1,e:1):1,d:1);", idx)
	t3, _ := ParseNewick("((a:1,b:1):1,(d:1,e:1):1,c:1);", idx)
	sup := NewSplitSupport([]*Tree{t1, t2, t3})
	cons, err := sup.MajorityRuleConsensus(names)
	if err != nil {
		t.Fatal(err)
	}
	// Only the {a,b} split appears in all three; the cd/ce/de splits
	// each appear once and must be excluded.
	got := cons.Bipartitions()
	if len(got) != 1 {
		t.Errorf("consensus has %d splits, want 1: %s", len(got), cons.Newick())
	}
}

// simulatePins are SHA-256 prefixes of SimulateAlignment's output for
// one model of each data type at two seeds. They were cut from the
// exp(Qt) kernel's plain triple loop and Choice's per-draw row sum; the
// tiled kernel and the once-per-row totals must reproduce them byte
// for byte.
var simulatePins = []struct {
	name   string
	seed   int64
	taxa   int
	sites  int
	digest string
}{
	{"GTR+G4", 1, 8, 300, "8b8554087e8a1484"},
	{"GTR+G4", 2, 8, 300, "85a30bb2c4e4f61f"},
	{"empirical+G4", 1, 8, 120, "09b4d70abadca4a8"},
	{"empirical+G4", 2, 8, 120, "63bd48a78800b461"},
	{"GY94+G4", 1, 6, 40, "36c8dcc1c8174e5d"},
	{"GY94+G4", 2, 6, 40, "944f8d9319fb0a77"},
}

func TestSimulateAlignmentPins(t *testing.T) {
	gtr, err := NewGTR([6]float64{1, 2.5, 0.8, 1.2, 3, 1}, []float64{0.3, 0.2, 0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	aa, err := NewEmpiricalAA()
	if err != nil {
		t.Fatal(err)
	}
	codon, err := NewGY94(2, 0.3, nil)
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]*Model{"GTR+G4": gtr, "empirical+G4": aa, "GY94+G4": codon}
	rs, err := NewSiteRates(RateGamma, 0.5, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range simulatePins {
		rng := sim.NewRNG(p.seed)
		tr := RandomTree(TaxonNames(p.taxa), 0.1, rng)
		al, err := SimulateAlignment(tr, models[p.name], rs, p.sites, rng)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for i, s := range al.Seqs {
			fmt.Fprintf(h, "%s\x1f%s\n", al.Names[i], s)
		}
		if got := hex.EncodeToString(h.Sum(nil))[:16]; got != p.digest {
			t.Errorf("%s seed %d: digest %s, want %s", p.name, p.seed, got, p.digest)
		}
	}
}
