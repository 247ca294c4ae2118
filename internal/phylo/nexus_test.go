package phylo

import (
	"bufio"
	"fmt"
	"io"
	"slices"
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
	al, err := ParseNEXUS(strings.NewReader(sampleNexus))
	if err != nil {
		t.Fatal(err)
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

// TestParseNEXUSTreesWithTranslate: a TREES block, translate table and
// all, is skipped like any other block the reader does not use — even
// one the old TREES reader refused — and a document with nothing but
// trees is refused, for it has no alignment.
func TestParseNEXUSTreesWithTranslate(t *testing.T) {
	data := sampleNexus[:strings.Index(sampleNexus, "BEGIN TREES;")]
	want, err := ParseNEXUS(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, trees := range []string{
		sampleNexus[len(data):],
		"BEGIN TREES;\n  TRANSLATE 1;\n  TREE t = (1,2);\nEND;\n", // an entry with no label
	} {
		al, err := ParseNEXUS(strings.NewReader(data + trees))
		if err != nil {
			t.Fatalf("%q: %v", trees, err)
		}
		if !slices.Equal(al.Names, want.Names) || !slices.Equal(al.Seqs, want.Seqs) {
			t.Errorf("%q: the TREES block changed the alignment", trees)
		}
	}
	if _, err := ParseNEXUS(strings.NewReader("#NEXUS\n" + sampleNexus[len(data):])); err == nil {
		t.Error("accepted a document with trees and no data")
	}
}

const nexusInterleaved = `#NEXUS
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

func TestParseNEXUSInterleaved(t *testing.T) {
	al, err := ParseNEXUS(strings.NewReader(nexusInterleaved))
	if err != nil {
		t.Fatal(err)
	}
	if al.Seqs[0] != "ACGTTTTT" {
		t.Errorf("interleaved row 0 = %q", al.Seqs[0])
	}
	if al.Seqs[2] != "ACGGTTTG" {
		t.Errorf("interleaved row 2 = %q", al.Seqs[2])
	}
}

const nexusWrapped = `#NEXUS
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

func TestParseNEXUSWrappedSequential(t *testing.T) {
	al, err := ParseNEXUS(strings.NewReader(nexusWrapped))
	if err != nil {
		t.Fatal(err)
	}
	if al.Type != AminoAcid {
		t.Errorf("datatype %v", al.Type)
	}
	if al.Seqs[0] != "ARNDCQEG" || al.Seqs[1] != "ARNECQEG" {
		t.Errorf("wrapped rows: %q", al.Seqs)
	}
}

var nexusErrorInputs = []string{
	"",
	"not nexus",
	"#NEXUS\nBEGIN DATA;\nDIMENSIONS NTAX=3 NCHAR=4;\nMATRIX\n a ACGT\n b ACGT\n;\nEND;\n", // NTAX mismatch
	"#NEXUS\nBEGIN DATA;\nDIMENSIONS NTAX=2 NCHAR=8;\nMATRIX\n a ACGT\n b ACGT\n;\nEND;\n", // NCHAR mismatch
	"#NEXUS\n",
}

func TestParseNEXUSErrors(t *testing.T) {
	for i, in := range nexusErrorInputs {
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
	b, err := ParseNEXUS(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("round trip parse failed:\n%s\n%v", buf.String(), err)
	}
	for i := range a.Names {
		if b.Names[i] != a.Names[i] || b.Seqs[i] != a.Seqs[i] {
			t.Errorf("row %d: %q/%q vs %q/%q", i, b.Names[i], b.Seqs[i], a.Names[i], a.Seqs[i])
		}
	}
}

const nexusComments = `#NEXUS
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

func TestNEXUSCommentsIgnored(t *testing.T) {
	al, err := ParseNEXUS(strings.NewReader(nexusComments))
	if err != nil {
		t.Fatal(err)
	}
	if al.NumTaxa() != 3 {
		t.Errorf("taxa = %d", al.NumTaxa())
	}
}

// TestParseNEXUSMalformedDimensions pins the dimension parsing fix: a
// non-numeric or non-positive NTAX/NCHAR must produce a parse error
// naming the bad dimension, not a silently-zero count.
var nexusMalformedDimensions = []struct{ in, wantSub string }{
	{"#NEXUS\nBEGIN DATA;\nDIMENSIONS NTAX=abc NCHAR=4;\nMATRIX\n a ACGT\n;\nEND;\n", "NTAX"},
	{"#NEXUS\nBEGIN DATA;\nDIMENSIONS NTAX=0 NCHAR=4;\nMATRIX\n;\nEND;\n", "NTAX"},
	{"#NEXUS\nBEGIN DATA;\nDIMENSIONS NTAX=1 NCHAR=4x;\nMATRIX\n a ACGT\n;\nEND;\n", "NCHAR"},
	{"#NEXUS\nBEGIN DATA;\nDIMENSIONS NTAX=1 NCHAR=-8;\nMATRIX\n a ACGT\n;\nEND;\n", "NCHAR"},
}

func TestParseNEXUSMalformedDimensions(t *testing.T) {
	for i, tc := range nexusMalformedDimensions {
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

// writeNEXUS writes the alignment as a sequential NEXUS DATA block —
// the round-trip test's way of producing input ParseNEXUS must accept.
func (a *Alignment) writeNEXUS(w io.Writer) error {
	bw := bufio.NewWriter(w)
	dtName := map[DataType]string{Nucleotide: "DNA", AminoAcid: "PROTEIN", Codon: "CODON"}[a.Type]
	fmt.Fprintf(bw, "#NEXUS\nBEGIN DATA;\n  DIMENSIONS NTAX=%d NCHAR=%d;\n  FORMAT DATATYPE=%s MISSING=? GAP=-;\n  MATRIX\n",
		a.NumTaxa(), a.Length(), dtName)
	width := 0
	for _, n := range a.Names {
		if len(n) > width {
			width = len(n)
		}
	}
	for i, n := range a.Names {
		label := n
		if strings.ContainsAny(n, " ():,;") {
			label = "'" + strings.ReplaceAll(n, "'", "''") + "'"
		}
		fmt.Fprintf(bw, "    %-*s  %s\n", width+2, label, a.Seqs[i])
	}
	fmt.Fprint(bw, "  ;\nEND;\n")
	return bw.Flush()
}
