package phylo

import (
	"io"
	"reflect"
	"strings"
	"testing"

	"lattice/internal/sim"
)

func smallNucAlignment() *Alignment {
	return &Alignment{
		Type:  Nucleotide,
		Names: []string{"a", "b", "c", "d"},
		Seqs: []string{
			"ACGTACGTAA",
			"ACGTACGTAC",
			"ACGAACGTAG",
			"ACGAACTTAT",
		},
	}
}

func TestFASTARoundTrip(t *testing.T) {
	a := smallNucAlignment()
	var buf strings.Builder
	if err := a.WriteFASTA(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := ParseFASTA(strings.NewReader(buf.String()), Nucleotide)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumTaxa() != a.NumTaxa() {
		t.Fatalf("taxa %d != %d", b.NumTaxa(), a.NumTaxa())
	}
	for i := range a.Seqs {
		if b.Names[i] != a.Names[i] || b.Seqs[i] != a.Seqs[i] {
			t.Errorf("row %d mismatch: %q/%q vs %q/%q", i, b.Names[i], b.Seqs[i], a.Names[i], a.Seqs[i])
		}
	}
}

// longWrappedAlignment has rows longer than WriteFASTA's 70 columns.
func longWrappedAlignment() *Alignment {
	long := strings.Repeat("ACGT", 100)
	return &Alignment{Type: Nucleotide, Names: []string{"x", "y", "z"}, Seqs: []string{long, long, long}}
}

func TestFASTALongLinesWrapped(t *testing.T) {
	a := longWrappedAlignment()
	long := a.Seqs[0]
	var buf strings.Builder
	if err := a.WriteFASTA(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if len(line) > 70 {
			t.Fatalf("line longer than 70 chars: %d", len(line))
		}
	}
	b, err := ParseFASTA(strings.NewReader(buf.String()), Nucleotide)
	if err != nil {
		t.Fatal(err)
	}
	if b.Seqs[0] != long {
		t.Error("wrapped sequence did not round-trip")
	}
}

// fastaErrorInputs are empty input, data before the first header, an
// empty record name and a '>' inside sequence data.
var fastaErrorInputs = []string{"", "ACGT\n", ">\nACGT\n", ">a\nAC>GT\n"}

func TestFASTAErrors(t *testing.T) {
	for _, in := range fastaErrorInputs {
		if _, err := ParseFASTA(strings.NewReader(in), Nucleotide); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
}

const phylipSample = "3 8\nalpha ACGTACGT\nbeta  ACGTACGA\ngamma ACG TACGA\n"

var phylipErrorInputs = []string{
	"",
	"x y\n",
	"2 4\nonly ACGT\n",
	"1 0\n",
}

func TestParsePHYLIP(t *testing.T) {
	a, err := ParsePHYLIP(strings.NewReader(phylipSample), Nucleotide)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumTaxa() != 3 || a.Length() != 8 {
		t.Fatalf("got %d × %d", a.NumTaxa(), a.Length())
	}
	if a.Seqs[2] != "ACGTACGA" {
		t.Errorf("whitespace in sequence not joined: %q", a.Seqs[2])
	}
}

func TestParsePHYLIPErrors(t *testing.T) {
	for _, in := range phylipErrorInputs {
		if _, err := ParsePHYLIP(strings.NewReader(in), Nucleotide); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
}

func TestValidate(t *testing.T) {
	good := smallNucAlignment()
	if err := good.Validate(); err != nil {
		t.Errorf("valid alignment rejected: %v", err)
	}
	tooFew := &Alignment{Type: Nucleotide, Names: []string{"a", "b"}, Seqs: []string{"AC", "AC"}}
	if err := tooFew.Validate(); err == nil {
		t.Error("expected error for 2 taxa")
	}
	ragged := smallNucAlignment()
	ragged.Seqs[2] = "ACG"
	if err := ragged.Validate(); err == nil {
		t.Error("expected error for ragged alignment")
	}
	dup := smallNucAlignment()
	dup.Names[1] = "a"
	if err := dup.Validate(); err == nil {
		t.Error("expected error for duplicate names")
	}
	badCodon := smallNucAlignment()
	badCodon.Type = Codon
	if err := badCodon.Validate(); err == nil {
		t.Error("expected error for codon length not multiple of 3")
	}
}

func TestCompilePatterns(t *testing.T) {
	a := &Alignment{
		Type:  Nucleotide,
		Names: []string{"a", "b", "c"},
		Seqs: []string{
			"AAAC",
			"AACC",
			"AACG",
		},
	}
	pd, err := a.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// Columns: (A,A,A), (A,A,A), (A,C,C), (C,C,G) → 3 unique patterns.
	if pd.NumPatterns() != 3 {
		t.Fatalf("got %d patterns, want 3", pd.NumPatterns())
	}
	var total float64
	for _, w := range pd.Weights {
		total += w
	}
	if total != 4 {
		t.Errorf("total pattern weight %v, want 4", total)
	}
	if pd.Weights[0] != 2 {
		t.Errorf("first pattern weight %v, want 2", pd.Weights[0])
	}
}

func TestCompileMissingData(t *testing.T) {
	a := &Alignment{
		Type:  Nucleotide,
		Names: []string{"a", "b", "c"},
		Seqs:  []string{"A-N", "ACC", "ACG"},
	}
	pd, err := a.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if pd.States[1*3+0] != -1 || pd.States[2*3+0] != -1 {
		t.Error("gap and ambiguity should encode as missing (-1)")
	}
}

func TestCompileCodon(t *testing.T) {
	a := &Alignment{
		Type:  Codon,
		Names: []string{"a", "b", "c"},
		Seqs:  []string{"ATGAAA", "ATGAAG", "ATGTAA"}, // TAA is a stop → missing
	}
	pd, err := a.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if pd.NumSites != 2 {
		t.Fatalf("codon sites = %d, want 2", pd.NumSites)
	}
	// Last taxon's second codon (TAA) is a stop → missing.
	last := pd.States[(pd.NumPatterns()-1)*3+2]
	if last != -1 {
		t.Errorf("stop codon encoded as %d, want -1", last)
	}
}

func TestBootstrapPreservesTotalWeight(t *testing.T) {
	a := smallNucAlignment()
	pd, err := a.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(11)
	bs := pd.Bootstrap(rng.Float64)
	var orig, resampled float64
	for _, w := range pd.Weights {
		orig += w
	}
	for _, w := range bs.Weights {
		resampled += w
	}
	if orig != resampled {
		t.Errorf("bootstrap total weight %v != original %v", resampled, orig)
	}
	if &bs.States[0] != &pd.States[0] {
		t.Error("bootstrap should share the pattern state array")
	}
}

func TestBootstrapVaries(t *testing.T) {
	a := smallNucAlignment()
	pd, _ := a.Compile()
	rng := sim.NewRNG(12)
	diff := false
	for i := 0; i < 10 && !diff; i++ {
		bs := pd.Bootstrap(rng.Float64)
		for j := range bs.Weights {
			if bs.Weights[j] != pd.Weights[j] {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Error("10 bootstrap replicates identical to original — resampling broken")
	}
}

func TestEncodeCodon(t *testing.T) {
	if s := encodeCodon('A', 'T', 'G'); CodonAminoAcid(s) != 'M' {
		t.Errorf("ATG should encode methionine, got %c", CodonAminoAcid(s))
	}
	if s := encodeCodon('T', 'A', 'A'); s != -1 {
		t.Errorf("stop codon TAA encoded as %d, want -1", s)
	}
	if s := encodeCodon('U', 'G', 'G'); CodonAminoAcid(s) != 'W' {
		t.Errorf("UGG should encode tryptophan (RNA accepted), got %d", s)
	}
	if s := encodeCodon('N', 'G', 'G'); s != -1 {
		t.Errorf("ambiguous codon encoded as %d, want -1", s)
	}
}

func TestDataTypeParsing(t *testing.T) {
	for in, want := range map[string]DataType{
		"nucleotide": Nucleotide, "DNA": Nucleotide,
		"protein": AminoAcid, "aa": AminoAcid,
		"codon": Codon,
	} {
		got, err := ParseDataType(in)
		if err != nil || got != want {
			t.Errorf("ParseDataType(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseDataType("morphology"); err == nil {
		t.Error("expected error for unknown type")
	}
	if Nucleotide.NumStates() != 4 || AminoAcid.NumStates() != 20 || Codon.NumStates() != 61 {
		t.Error("wrong state counts")
	}
}

// TestReadAlignmentTellsTheFormat: ReadAlignment reads FASTA, PHYLIP
// and NEXUS as the parser of each does, whatever blank lines come
// first and in whichever case the file says #NEXUS, and passes the
// caller's data type to the formats that do not record one.
func TestReadAlignmentTellsTheFormat(t *testing.T) {
	var fasta, nexus strings.Builder
	if err := smallNucAlignment().WriteFASTA(&fasta); err != nil {
		t.Fatal(err)
	}
	if err := smallNucAlignment().writeNEXUS(&nexus); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		text  string
		parse func(io.Reader) (*Alignment, error)
	}{
		{fasta.String(), func(r io.Reader) (*Alignment, error) { return ParseFASTA(r, AminoAcid) }},
		{phylipSample, func(r io.Reader) (*Alignment, error) { return ParsePHYLIP(r, AminoAcid) }},
		{nexus.String(), ParseNEXUS},
		{strings.Replace(nexus.String(), "#NEXUS", "#nexus", 1), ParseNEXUS},
	} {
		want, err := c.parse(strings.NewReader(c.text))
		if err != nil {
			t.Fatal(err)
		}
		for _, lead := range []string{"", "\n", " \r\n\t\n"} {
			got, err := ReadAlignment(strings.NewReader(lead+c.text), AminoAcid)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("ReadAlignment(%q) = %+v, %v; want %+v", lead+c.text, got, err, want)
			}
		}
	}
	if _, err := ReadAlignment(strings.NewReader(""), Nucleotide); err == nil {
		t.Error("ReadAlignment accepted an empty file")
	}
}
