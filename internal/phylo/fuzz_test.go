package phylo

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzParseFASTA feeds arbitrary bytes to the FASTA reader: it must
// return an error or an alignment, never panic, and an alignment it
// accepts must come back unchanged through WriteFASTA.
func FuzzParseFASTA(f *testing.F) {
	for _, a := range []*Alignment{smallNucAlignment(), longWrappedAlignment()} {
		var buf bytes.Buffer
		if err := a.WriteFASTA(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, in := range fastaErrorInputs {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ParseFASTA(bytes.NewReader(data), Nucleotide)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := a.WriteFASTA(&buf); err != nil {
			t.Fatalf("accepted alignment does not write: %v", err)
		}
		back, err := ParseFASTA(bytes.NewReader(buf.Bytes()), Nucleotide)
		if err != nil {
			t.Fatalf("own WriteFASTA refused: %v\n%q", err, buf.Bytes())
		}
		if !slices.Equal(back.Names, a.Names) || !slices.Equal(back.Seqs, a.Seqs) {
			t.Fatalf("round trip changed the alignment:\n got %q %q\nwant %q %q", back.Names, back.Seqs, a.Names, a.Seqs)
		}
	})
}

// FuzzParsePHYLIP feeds arbitrary bytes to the PHYLIP reader: an error
// or an alignment of the declared dimensions, never a panic.
func FuzzParsePHYLIP(f *testing.F) {
	f.Add([]byte(phylipSample))
	for _, in := range phylipErrorInputs {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ParsePHYLIP(bytes.NewReader(data), Nucleotide)
		if err != nil {
			return
		}
		for i, s := range a.Seqs {
			if len(s) != len(a.Seqs[0]) {
				t.Fatalf("accepted rows of unequal length: %q has %d, %q has %d", a.Names[i], len(s), a.Names[0], len(a.Seqs[0]))
			}
		}
	})
}

// FuzzParseNEXUS feeds arbitrary bytes to the NEXUS reader: an error or
// an alignment, never a panic. sampleNexus carries a TREES block.
func FuzzParseNEXUS(f *testing.F) {
	for _, in := range append([]string{sampleNexus, nexusInterleaved, nexusWrapped, nexusComments}, nexusErrorInputs...) {
		f.Add([]byte(in))
	}
	for _, tc := range nexusMalformedDimensions {
		f.Add([]byte(tc.in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		al, err := ParseNEXUS(strings.NewReader(string(data)))
		if err != nil {
			return
		}
		if al == nil {
			t.Fatal("accepted a document with no alignment")
		}
	})
}

// fuzzTaxa is the alignment index FuzzParseNewick also reads against:
// the names its seed trees use.
var fuzzTaxa = map[string]int{"a": 0, "b": 1, "c": 2, "d": 3, "e": 4}

// FuzzParseNewick feeds arbitrary text to the Newick reader, both free
// and against an alignment's index: an error or a tree, never a panic.
// An accepted tree passes Check and places each taxon once, its Newick
// reads back to the same Newick, and its clone passes Check and prints
// that Newick too.
func FuzzParseNewick(f *testing.F) {
	for _, in := range append(slices.Clone(newickInputs), newickErrorInputs...) {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, idx := range []map[string]int{nil, fuzzTaxa} {
			tr, err := ParseNewick(s, idx)
			if err != nil {
				continue
			}
			if err := tr.Check(); err != nil {
				t.Fatalf("accepted tree fails Check: %v", err)
			}
			placed := make(map[int]bool)
			for _, l := range tr.Leaves() {
				if placed[l.Taxon] {
					t.Fatalf("taxon %d (%q) placed twice", l.Taxon, l.Name)
				}
				placed[l.Taxon] = true
			}
			out := tr.Newick()
			back, err := ParseNewick(out, idx)
			if err != nil {
				t.Fatalf("own Newick refused: %v\n%q", err, out)
			}
			if again := back.Newick(); again != out {
				t.Fatalf("Newick not a fixed point:\n got %q\nwant %q", again, out)
			}
			c := tr.Clone()
			if err := c.Check(); err != nil {
				t.Fatalf("clone fails Check: %v", err)
			}
			if got := c.Newick(); got != out {
				t.Fatalf("clone prints %q, original %q", got, out)
			}
		}
	})
}

// FuzzLoadRunner feeds arbitrary bytes to LoadRunner as a checkpoint of
// the 7-taxon runner fixture: an error or a runner, never a panic. A
// runner it accepts finishes within MaxGenerations steps, and its best
// tree is well formed and places every taxon once.
func FuzzLoadRunner(f *testing.F) {
	fx, cfg := runnerFixture(f)
	cfg.MaxGenerations, cfg.StagnationGenerations = 12, 6
	ev := fx.engine(f)
	r, err := NewRunner(ev, fx.al.Names, cfg, 1)
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{0, cfg.MaxGenerations} {
		r.Step(n)
		var buf bytes.Buffer
		if err := r.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, in := range checkpointErrorInputs {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := LoadRunner(bytes.NewReader(data), ev, fx.al.Names, cfg)
		if err != nil {
			return
		}
		if !r.Step(cfg.MaxGenerations) {
			t.Fatalf("accepted checkpoint unfinished after %d steps, at generation %d", cfg.MaxGenerations, r.Generation())
		}
		tree, _ := r.Best()
		if err := tree.Check(); err != nil {
			t.Fatalf("best tree fails Check: %v", err)
		}
		placed := make([]bool, len(fx.al.Names))
		for _, l := range tree.Leaves() {
			if l.Taxon < 0 || l.Taxon >= len(placed) || placed[l.Taxon] {
				t.Fatalf("best tree places taxon %d (%q) out of range or twice: %s", l.Taxon, l.Name, tree.Newick())
			}
			placed[l.Taxon] = true
		}
		if n := len(tree.Leaves()); n != len(placed) {
			t.Fatalf("best tree holds %d of %d taxa: %s", n, len(placed), tree.Newick())
		}
	})
}
