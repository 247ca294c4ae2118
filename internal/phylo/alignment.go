package phylo

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Alignment is a multiple sequence alignment: one row per taxon, all
// rows the same length. Sequences are stored as raw characters; state
// encoding happens when the alignment is compiled into site patterns.
type Alignment struct {
	Type  DataType
	Names []string
	Seqs  []string
}

// NumTaxa returns the number of sequences.
func (a *Alignment) NumTaxa() int { return len(a.Names) }

// Length returns the number of alignment columns (characters for
// nucleotide and amino acid data; nucleotides — not codons — for
// codon data).
func (a *Alignment) Length() int {
	if len(a.Seqs) == 0 {
		return 0
	}
	return len(a.Seqs[0])
}

// Validate checks the structural invariants the GARLI validation mode
// enforces before any job is scheduled: at least 3 taxa, non-empty
// equal-length rows, unique taxon names, codon alignments a multiple
// of 3 long, and at least one usable site pattern.
func (a *Alignment) Validate() error {
	if len(a.Names) != len(a.Seqs) {
		return fmt.Errorf("phylo: %d names but %d sequences", len(a.Names), len(a.Seqs))
	}
	if len(a.Names) < 3 {
		return fmt.Errorf("phylo: alignment has %d taxa; at least 3 required", len(a.Names))
	}
	seen := make(map[string]bool, len(a.Names))
	for i, n := range a.Names {
		if n == "" {
			return fmt.Errorf("phylo: taxon %d has an empty name", i)
		}
		if seen[n] {
			return fmt.Errorf("phylo: duplicate taxon name %q", n)
		}
		seen[n] = true
	}
	l := a.Length()
	if l == 0 {
		return fmt.Errorf("phylo: alignment is empty")
	}
	for i, s := range a.Seqs {
		if len(s) != l {
			return fmt.Errorf("phylo: sequence %q has length %d; expected %d", a.Names[i], len(s), l)
		}
	}
	if a.Type == Codon && l%3 != 0 {
		return fmt.Errorf("phylo: codon alignment length %d is not a multiple of 3", l)
	}
	pd, err := a.Compile()
	if err != nil {
		return err
	}
	if pd.NumPatterns() == 0 {
		return fmt.Errorf("phylo: alignment has no usable site patterns")
	}
	return nil
}

// PatternData is a compiled alignment: columns collapsed to unique
// site patterns with multiplicities. GARLI's per-generation cost is
// proportional to unique patterns, not raw alignment length, which is
// why the runtime model uses pattern count as a predictor.
type PatternData struct {
	Type     DataType
	NumTaxa  int
	States   []int8    // [pattern*NumTaxa + taxon], -1 = missing
	Weights  []float64 // multiplicity of each pattern
	NumSites int       // total columns represented (codon sites for codon data)
}

// NumPatterns returns the number of unique site patterns.
func (p *PatternData) NumPatterns() int { return len(p.Weights) }

// Compile encodes the alignment into states and collapses identical
// columns into weighted patterns. Characters that do not encode a
// valid state (gaps, ambiguity codes, stop codons) become missing
// data.
func (a *Alignment) Compile() (*PatternData, error) {
	nt := a.NumTaxa()
	if nt == 0 {
		return nil, fmt.Errorf("phylo: cannot compile empty alignment")
	}
	var nsites int
	switch a.Type {
	case Nucleotide, AminoAcid:
		nsites = a.Length()
	case Codon:
		if a.Length()%3 != 0 {
			return nil, fmt.Errorf("phylo: codon alignment length %d is not a multiple of 3", a.Length())
		}
		nsites = a.Length() / 3
	default:
		return nil, fmt.Errorf("phylo: unknown data type %v", a.Type)
	}
	column := make([]int8, nt)
	counts := make(map[string]float64)
	order := make([]string, 0, nsites)
	for s := 0; s < nsites; s++ {
		for t := 0; t < nt; t++ {
			var st int
			switch a.Type {
			case Nucleotide:
				st = encodeNucleotide(a.Seqs[t][s])
			case AminoAcid:
				st = encodeAminoAcid(a.Seqs[t][s])
			case Codon:
				st = encodeCodon(a.Seqs[t][3*s], a.Seqs[t][3*s+1], a.Seqs[t][3*s+2])
			}
			column[t] = int8(st)
		}
		key := string(columnBytes(column))
		if _, ok := counts[key]; !ok {
			order = append(order, key)
		}
		counts[key]++
	}
	pd := &PatternData{Type: a.Type, NumTaxa: nt, NumSites: nsites}
	for _, key := range order {
		for i := 0; i < nt; i++ {
			pd.States = append(pd.States, int8(key[i])-1) // undo +1 bias
		}
		pd.Weights = append(pd.Weights, counts[key])
	}
	return pd, nil
}

// columnBytes encodes a column as bytes with a +1 bias so the missing
// marker -1 becomes 0 and map keys are valid.
func columnBytes(col []int8) []byte {
	b := make([]byte, len(col))
	for i, v := range col {
		b[i] = byte(v + 1)
	}
	return b
}

// Bootstrap returns a new PatternData whose pattern weights are a
// multinomial resample (with replacement) of the original sites —
// Felsenstein's nonparametric bootstrap. The pattern set is shared;
// only weights change, so resampling is cheap regardless of alignment
// size. The rand function must return a uniform variate in [0,1).
func (p *PatternData) Bootstrap(rand func() float64) *PatternData {
	n := p.NumPatterns()
	cum := make([]float64, n)
	var total float64
	for i, w := range p.Weights {
		total += w
		cum[i] = total
	}
	weights := make([]float64, n)
	draws := int(total + 0.5)
	for i := 0; i < draws; i++ {
		x := rand() * total
		idx := sort.SearchFloat64s(cum, x)
		if idx >= n {
			idx = n - 1
		}
		weights[idx]++
	}
	return &PatternData{
		Type:     p.Type,
		NumTaxa:  p.NumTaxa,
		States:   p.States,
		Weights:  weights,
		NumSites: p.NumSites,
	}
}

// ParseFASTA reads a FASTA-format alignment. The data type is not
// recorded in FASTA, so the caller supplies it.
func ParseFASTA(r io.Reader, dt DataType) (*Alignment, error) {
	a := &Alignment{Type: dt}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var cur strings.Builder
	flush := func() {
		if len(a.Names) > len(a.Seqs) {
			a.Seqs = append(a.Seqs, cur.String())
			cur.Reset()
		}
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ">") {
			flush()
			name := strings.TrimSpace(strings.TrimPrefix(line, ">"))
			if name == "" {
				return nil, fmt.Errorf("phylo: FASTA record with empty name")
			}
			a.Names = append(a.Names, name)
			continue
		}
		if len(a.Names) == 0 {
			return nil, fmt.Errorf("phylo: FASTA sequence data before first header")
		}
		// A '>' in sequence data would start a header wherever WriteFASTA
		// wraps the row; whitespace inside a line is layout, not data.
		if strings.Contains(line, ">") {
			return nil, fmt.Errorf("phylo: FASTA sequence for %q contains '>'", a.Names[len(a.Names)-1])
		}
		for _, chunk := range strings.Fields(line) {
			cur.WriteString(chunk)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("phylo: reading FASTA: %w", err)
	}
	flush()
	if len(a.Names) == 0 {
		return nil, fmt.Errorf("phylo: empty FASTA input")
	}
	return a, nil
}

// WriteFASTA writes the alignment in FASTA format with 70-column
// wrapped sequence lines.
func (a *Alignment) WriteFASTA(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i, name := range a.Names {
		if _, err := fmt.Fprintf(bw, ">%s\n", name); err != nil {
			return err
		}
		s := a.Seqs[i]
		for len(s) > 70 {
			if _, err := fmt.Fprintln(bw, s[:70]); err != nil {
				return err
			}
			s = s[70:]
		}
		if _, err := fmt.Fprintln(bw, s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParsePHYLIP reads a relaxed sequential PHYLIP alignment: a header
// line with taxon and site counts followed by "name sequence" rows
// (sequence may continue on following lines until the declared length
// is reached).
func ParsePHYLIP(r io.Reader, dt DataType) (*Alignment, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("phylo: empty PHYLIP input")
	}
	var ntax, nchar int
	if _, err := fmt.Sscan(strings.TrimSpace(sc.Text()), &ntax, &nchar); err != nil {
		return nil, fmt.Errorf("phylo: bad PHYLIP header: %w", err)
	}
	if ntax <= 0 || nchar <= 0 {
		return nil, fmt.Errorf("phylo: bad PHYLIP dimensions %d × %d", ntax, nchar)
	}
	a := &Alignment{Type: dt}
	for len(a.Names) < ntax {
		if !sc.Scan() {
			return nil, fmt.Errorf("phylo: PHYLIP input ended after %d of %d taxa", len(a.Names), ntax)
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		name := fields[0]
		seq := strings.Join(fields[1:], "")
		for len(seq) < nchar {
			if !sc.Scan() {
				return nil, fmt.Errorf("phylo: sequence for %q ended at %d of %d characters", name, len(seq), nchar)
			}
			seq += strings.Join(strings.Fields(sc.Text()), "")
		}
		if len(seq) != nchar {
			return nil, fmt.Errorf("phylo: sequence for %q has %d characters; expected %d", name, len(seq), nchar)
		}
		a.Names = append(a.Names, name)
		a.Seqs = append(a.Seqs, seq)
	}
	return a, nil
}

// ReadAlignment reads an alignment in the format its first bytes name,
// after any blank lines and indentation: "#NEXUS" (in any case) is
// NEXUS, whose FORMAT block sets the data type; ">" is FASTA; anything
// else is PHYLIP. dt is the data type of FASTA and PHYLIP data, which
// do not record one.
func ReadAlignment(r io.Reader, dt DataType) (*Alignment, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	data = bytes.TrimLeft(data, " \t\r\n")
	switch {
	case len(data) >= 6 && bytes.EqualFold(data[:6], []byte("#NEXUS")):
		return ParseNEXUS(bytes.NewReader(data))
	case bytes.HasPrefix(data, []byte(">")):
		return ParseFASTA(bytes.NewReader(data), dt)
	default:
		return ParsePHYLIP(bytes.NewReader(data), dt)
	}
}
