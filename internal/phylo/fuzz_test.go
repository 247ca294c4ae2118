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
// a document, never a panic.
func FuzzParseNEXUS(f *testing.F) {
	for _, in := range append([]string{sampleNexus, nexusInterleaved, nexusWrapped, nexusComments}, nexusErrorInputs...) {
		f.Add([]byte(in))
	}
	for _, tc := range nexusMalformedDimensions {
		f.Add([]byte(tc.in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		nf, err := ParseNEXUS(strings.NewReader(string(data)))
		if err != nil {
			return
		}
		if nf.Alignment == nil && len(nf.Trees) == 0 {
			t.Fatal("accepted a document with neither data nor trees")
		}
	})
}
