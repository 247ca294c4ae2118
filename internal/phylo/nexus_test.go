package phylo

import (
	"strings"
	"testing"
)

const sampleNexus = `#NEXUS
[ a GARLI-style data file ]
BEGIN DATA;
  DIMENSIONS NTAX=4 NCHAR=12;
  FORMAT DATATYPE=DNA MISSING=? GAP=- INTERLEAVE=NO;
  MATRIX
    taxon_a  ACGTACGTACGT
    taxon_b  ACGTACGAACGA
    'taxon c'  ACG-ACGTAC?T
    taxon_d  ACGTACTTACGT
  ;
END;
BEGIN TREES;
  TRANSLATE
    1 taxon_a,
    2 taxon_b,
    3 'taxon c',
    4 taxon_d
  ;
  TREE best = ((1:0.1,2:0.2):0.05,3:0.3,4:0.15);
END;
`

func TestParseNEXUSData(t *testing.T) {
	nf, err := ParseNEXUS(strings.NewReader(sampleNexus))
	if err != nil {
		t.Fatal(err)
	}
	al := nf.Alignment
	if al == nil {
		t.Fatal("no alignment parsed")
	}
	if al.NumTaxa() != 4 || al.Length() != 12 {
		t.Fatalf("got %d × %d", al.NumTaxa(), al.Length())
	}
	if al.Type != Nucleotide {
		t.Errorf("datatype %v", al.Type)
	}
	if al.Names[2] != "taxon c" {
		t.Errorf("quoted name parsed as %q", al.Names[2])
	}
	if al.Seqs[2] != "ACG-ACGTAC?T" {
		t.Errorf("sequence with gap/missing mangled: %q", al.Seqs[2])
	}
	if err := al.Validate(); err != nil {
		t.Errorf("parsed alignment invalid: %v", err)
	}
}

func TestParseNEXUSTreesWithTranslate(t *testing.T) {
	nf, err := ParseNEXUS(strings.NewReader(sampleNexus))
	if err != nil {
		t.Fatal(err)
	}
	nw, ok := nf.Trees["best"]
	if !ok {
		t.Fatalf("tree 'best' missing; have %v", nf.TreeOrder)
	}
	idx := map[string]int{}
	for i, n := range nf.Alignment.Names {
		idx[n] = i
	}
	tr, err := ParseNewick(nw, idx)
	if err != nil {
		t.Fatalf("translated Newick unparseable (%q): %v", nw, err)
	}
	if tr.NumTaxa() != 4 {
		t.Errorf("tree has %d taxa", tr.NumTaxa())
	}
	// The translate table must have substituted labels.
	if !strings.Contains(nw, "taxon c") {
		t.Errorf("translate table not applied: %q", nw)
	}
}

func TestParseNEXUSInterleaved(t *testing.T) {
	in := `#NEXUS
BEGIN DATA;
  DIMENSIONS NTAX=3 NCHAR=8;
  FORMAT DATATYPE=DNA INTERLEAVE;
  MATRIX
    a ACGT
    b ACGA
    c ACGG
    a TTTT
    b TTTA
    c TTTG
  ;
END;
`
	nf, err := ParseNEXUS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if nf.Alignment.Seqs[0] != "ACGTTTTT" {
		t.Errorf("interleaved row 0 = %q", nf.Alignment.Seqs[0])
	}
	if nf.Alignment.Seqs[2] != "ACGGTTTG" {
		t.Errorf("interleaved row 2 = %q", nf.Alignment.Seqs[2])
	}
}

func TestParseNEXUSWrappedSequential(t *testing.T) {
	in := `#NEXUS
BEGIN CHARACTERS;
  DIMENSIONS NTAX=2 NCHAR=8;
  FORMAT DATATYPE=PROTEIN;
  MATRIX
    alpha ARND
          CQEG
    beta  ARNE CQEG
  ;
END;
`
	nf, err := ParseNEXUS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if nf.Alignment.Type != AminoAcid {
		t.Errorf("datatype %v", nf.Alignment.Type)
	}
	if nf.Alignment.Seqs[0] != "ARNDCQEG" || nf.Alignment.Seqs[1] != "ARNECQEG" {
		t.Errorf("wrapped rows: %q", nf.Alignment.Seqs)
	}
}

func TestParseNEXUSErrors(t *testing.T) {
	cases := []string{
		"",
		"not nexus",
		"#NEXUS\nBEGIN DATA;\nDIMENSIONS NTAX=3 NCHAR=4;\nMATRIX\n a ACGT\n b ACGT\n;\nEND;\n", // NTAX mismatch
		"#NEXUS\nBEGIN DATA;\nDIMENSIONS NTAX=2 NCHAR=8;\nMATRIX\n a ACGT\n b ACGT\n;\nEND;\n", // NCHAR mismatch
		"#NEXUS\n",
	}
	for i, in := range cases {
		if _, err := ParseNEXUS(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestNEXUSRoundTrip(t *testing.T) {
	a := &Alignment{
		Type:  Nucleotide,
		Names: []string{"one", "two taxa", "three"},
		Seqs:  []string{"ACGTAC", "ACG-AC", "AC?TAC"},
	}
	var buf strings.Builder
	if err := a.writeNEXUS(&buf); err != nil {
		t.Fatal(err)
	}
	nf, err := ParseNEXUS(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("round trip parse failed:\n%s\n%v", buf.String(), err)
	}
	b := nf.Alignment
	for i := range a.Names {
		if b.Names[i] != a.Names[i] || b.Seqs[i] != a.Seqs[i] {
			t.Errorf("row %d: %q/%q vs %q/%q", i, b.Names[i], b.Seqs[i], a.Names[i], a.Seqs[i])
		}
	}
}

func TestNEXUSCommentsIgnored(t *testing.T) {
	in := `#NEXUS
[outer [nested] comment]
BEGIN DATA;
  DIMENSIONS [why not here] NTAX=3 NCHAR=4;
  FORMAT DATATYPE=DNA;
  MATRIX
    a ACGT [trailing]
    b ACGA
    c ACGC
  ;
END;
`
	nf, err := ParseNEXUS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if nf.Alignment.NumTaxa() != 3 {
		t.Errorf("taxa = %d", nf.Alignment.NumTaxa())
	}
}

// TestParseNEXUSMalformedDimensions pins the dimension parsing fix: a
// non-numeric or non-positive NTAX/NCHAR must produce a parse error
// naming the bad dimension, not a silently-zero count.
func TestParseNEXUSMalformedDimensions(t *testing.T) {
	cases := []struct{ in, wantSub string }{
		{"#NEXUS\nBEGIN DATA;\nDIMENSIONS NTAX=abc NCHAR=4;\nMATRIX\n a ACGT\n;\nEND;\n", "NTAX"},
		{"#NEXUS\nBEGIN DATA;\nDIMENSIONS NTAX=0 NCHAR=4;\nMATRIX\n;\nEND;\n", "NTAX"},
		{"#NEXUS\nBEGIN DATA;\nDIMENSIONS NTAX=1 NCHAR=4x;\nMATRIX\n a ACGT\n;\nEND;\n", "NCHAR"},
		{"#NEXUS\nBEGIN DATA;\nDIMENSIONS NTAX=1 NCHAR=-8;\nMATRIX\n a ACGT\n;\nEND;\n", "NCHAR"},
	}
	for i, tc := range cases {
		_, err := ParseNEXUS(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("case %d: expected a parse error for malformed %s", i, tc.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("case %d: error %q does not name dimension %s", i, err, tc.wantSub)
		}
	}
}
