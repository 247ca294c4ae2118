package phylo

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// NEXUS support: GARLI's native input format. The subset implemented
// covers what the portal accepts — a DATA or CHARACTERS block
// (DIMENSIONS, FORMAT with datatype/missing/gap/interleave, MATRIX)
// and a TREES block for user starting trees — with bracket comments
// and quoted labels handled throughout.

// nexusTokenizer splits a NEXUS stream into tokens, dropping [...]
// comments and honouring single-quoted labels.
type nexusTokenizer struct {
	r      *bufio.Reader
	peeked *string
}

func newNexusTokenizer(r io.Reader) *nexusTokenizer {
	return &nexusTokenizer{r: bufio.NewReader(r)}
}

// next returns the next token, or "" at EOF. Punctuation characters
// ';' '=' are tokens of their own.
func (tz *nexusTokenizer) next() (string, error) {
	if tz.peeked != nil {
		t := *tz.peeked
		tz.peeked = nil
		return t, nil
	}
	// Skip whitespace and comments.
	for {
		c, err := tz.r.ReadByte()
		if err == io.EOF {
			return "", nil
		}
		if err != nil {
			return "", err
		}
		switch {
		case c == '[':
			depth := 1
			for depth > 0 {
				cc, err := tz.r.ReadByte()
				if err != nil {
					return "", fmt.Errorf("phylo: unterminated NEXUS comment")
				}
				if cc == '[' {
					depth++
				} else if cc == ']' {
					depth--
				}
			}
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			continue
		case c == ';' || c == '=':
			return string(c), nil
		case c == '\'':
			var b strings.Builder
			for {
				cc, err := tz.r.ReadByte()
				if err != nil {
					return "", fmt.Errorf("phylo: unterminated quoted NEXUS label")
				}
				if cc == '\'' {
					nxt, err := tz.r.ReadByte()
					if err == nil && nxt == '\'' {
						b.WriteByte('\'')
						continue
					}
					if err == nil {
						if uerr := tz.r.UnreadByte(); uerr != nil {
							return "", uerr
						}
					}
					return b.String(), nil
				}
				b.WriteByte(cc)
			}
		default:
			var b strings.Builder
			b.WriteByte(c)
			for {
				cc, err := tz.r.ReadByte()
				if err == io.EOF {
					return b.String(), nil
				}
				if err != nil {
					return "", err
				}
				if cc == ';' || cc == '=' || cc == '[' || cc == ' ' || cc == '\t' || cc == '\n' || cc == '\r' || cc == '\'' {
					if uerr := tz.r.UnreadByte(); uerr != nil {
						return "", uerr
					}
					return b.String(), nil
				}
				b.WriteByte(cc)
			}
		}
	}
}

func (tz *nexusTokenizer) peek() (string, error) {
	if tz.peeked != nil {
		return *tz.peeked, nil
	}
	t, err := tz.next()
	if err != nil {
		return "", err
	}
	tz.peeked = &t
	return t, nil
}

// skipToSemicolon discards tokens through the next ';'.
func (tz *nexusTokenizer) skipToSemicolon() error {
	for {
		t, err := tz.next()
		if err != nil {
			return err
		}
		if t == "" {
			return fmt.Errorf("phylo: unexpected NEXUS end of file")
		}
		if t == ";" {
			return nil
		}
	}
}

// NexusFile is the parsed content of a NEXUS document.
type NexusFile struct {
	Alignment *Alignment
	// Trees maps tree names (from a TREES block) to Newick strings;
	// translate tables are applied.
	Trees map[string]string
	// TreeOrder preserves the order trees appeared in.
	TreeOrder []string
}

// ParseNEXUS reads a NEXUS document containing a DATA/CHARACTERS block
// and optionally a TREES block.
func ParseNEXUS(r io.Reader) (*NexusFile, error) {
	tz := newNexusTokenizer(r)
	first, err := tz.next()
	if err != nil {
		return nil, err
	}
	if !strings.EqualFold(first, "#NEXUS") {
		return nil, fmt.Errorf("phylo: not a NEXUS file (starts with %q)", first)
	}
	nf := &NexusFile{Trees: map[string]string{}}
	for {
		t, err := tz.next()
		if err != nil {
			return nil, err
		}
		if t == "" {
			break
		}
		if !strings.EqualFold(t, "BEGIN") {
			continue
		}
		name, err := tz.next()
		if err != nil {
			return nil, err
		}
		if _, err := tz.next(); err != nil { // ';'
			return nil, err
		}
		switch strings.ToUpper(name) {
		case "DATA", "CHARACTERS":
			al, err := parseDataBlock(tz)
			if err != nil {
				return nil, err
			}
			nf.Alignment = al
		case "TREES":
			if err := parseTreesBlock(tz, nf); err != nil {
				return nil, err
			}
		default:
			if err := skipBlock(tz); err != nil {
				return nil, err
			}
		}
	}
	if nf.Alignment == nil && len(nf.Trees) == 0 {
		return nil, fmt.Errorf("phylo: NEXUS file has no DATA, CHARACTERS or TREES block")
	}
	return nf, nil
}

// skipBlock discards tokens through "END ;".
func skipBlock(tz *nexusTokenizer) error {
	for {
		t, err := tz.next()
		if err != nil {
			return err
		}
		if t == "" {
			return fmt.Errorf("phylo: unterminated NEXUS block")
		}
		if strings.EqualFold(t, "END") || strings.EqualFold(t, "ENDBLOCK") {
			return tz.skipToSemicolon()
		}
	}
}

func parseDataBlock(tz *nexusTokenizer) (*Alignment, error) {
	var (
		ntax, nchar int
		dt          = Nucleotide
		missing     = byte('?')
		gap         = byte('-')
		interleave  bool
	)
	readKV := func() error {
		for {
			t, err := tz.next()
			if err != nil {
				return err
			}
			if t == ";" || t == "" {
				return nil
			}
			key := strings.ToUpper(t)
			eq, err := tz.peek()
			if err != nil {
				return err
			}
			var val string
			if eq == "=" {
				if _, err := tz.next(); err != nil {
					return err
				}
				val, err = tz.next()
				if err != nil {
					return err
				}
			}
			switch key {
			case "NTAX":
				ntax, err = strconv.Atoi(val)
				if err != nil || ntax <= 0 {
					return fmt.Errorf("phylo: malformed NEXUS dimension NTAX=%q", val)
				}
			case "NCHAR":
				nchar, err = strconv.Atoi(val)
				if err != nil || nchar <= 0 {
					return fmt.Errorf("phylo: malformed NEXUS dimension NCHAR=%q", val)
				}
			case "DATATYPE":
				switch strings.ToUpper(val) {
				case "DNA", "RNA", "NUCLEOTIDE":
					dt = Nucleotide
				case "PROTEIN":
					dt = AminoAcid
				case "CODON":
					dt = Codon
				default:
					return fmt.Errorf("phylo: unsupported NEXUS datatype %q", val)
				}
			case "MISSING":
				if val != "" {
					missing = val[0]
				}
			case "GAP":
				if val != "" {
					gap = val[0]
				}
			case "INTERLEAVE":
				interleave = val == "" || strings.EqualFold(val, "YES")
			}
		}
	}
	al := &Alignment{Type: dt}
	rows := map[string]*strings.Builder{}
	for {
		t, err := tz.next()
		if err != nil {
			return nil, err
		}
		if t == "" {
			return nil, fmt.Errorf("phylo: unterminated DATA block")
		}
		switch strings.ToUpper(t) {
		case "DIMENSIONS", "FORMAT":
			if err := readKV(); err != nil {
				return nil, err
			}
			al.Type = dt
		case "MATRIX":
			// Rows: name sequence [possibly interleaved].
			for {
				name, err := tz.next()
				if err != nil {
					return nil, err
				}
				if name == ";" {
					goto matrixDone
				}
				if name == "" {
					return nil, fmt.Errorf("phylo: unterminated MATRIX")
				}
				seq, err := tz.next()
				if err != nil {
					return nil, err
				}
				if seq == ";" || seq == "" {
					return nil, fmt.Errorf("phylo: taxon %q has no sequence", name)
				}
				b, ok := rows[name]
				if !ok {
					b = &strings.Builder{}
					rows[name] = b
					al.Names = append(al.Names, name)
				} else if !interleave {
					return nil, fmt.Errorf("phylo: duplicate taxon %q in sequential matrix", name)
				}
				// Non-interleaved sequences may wrap: keep consuming
				// sequence tokens until the row reaches nchar (when
				// known) or the next token looks like a new row.
				b.WriteString(normalizeSeq(seq, missing, gap))
				for !interleave && nchar > 0 && b.Len() < nchar {
					more, err := tz.next()
					if err != nil {
						return nil, err
					}
					if more == ";" || more == "" {
						return nil, fmt.Errorf("phylo: sequence for %q ended at %d of %d", name, b.Len(), nchar)
					}
					b.WriteString(normalizeSeq(more, missing, gap))
				}
			}
		case "END", "ENDBLOCK":
			if err := tz.skipToSemicolon(); err != nil {
				return nil, err
			}
			goto blockDone
		default:
			if err := tz.skipToSemicolon(); err != nil {
				return nil, err
			}
		}
		continue
	matrixDone:
	}
blockDone:
	for _, name := range al.Names {
		al.Seqs = append(al.Seqs, rows[name].String())
	}
	if ntax > 0 && al.NumTaxa() != ntax {
		return nil, fmt.Errorf("phylo: NEXUS declares NTAX=%d but matrix has %d taxa", ntax, al.NumTaxa())
	}
	if nchar > 0 && al.Length() != nchar {
		return nil, fmt.Errorf("phylo: NEXUS declares NCHAR=%d but rows have %d characters", nchar, al.Length())
	}
	return al, nil
}

// normalizeSeq maps the file's missing/gap symbols to this package's
// conventions ('N'-style missing handled by state encoding; gaps '-').
func normalizeSeq(s string, missing, gap byte) string {
	out := []byte(s)
	for i, c := range out {
		switch c {
		case missing:
			out[i] = '?'
		case gap:
			out[i] = '-'
		}
	}
	return string(out)
}

func parseTreesBlock(tz *nexusTokenizer, nf *NexusFile) error {
	translate := map[string]string{}
	for {
		t, err := tz.next()
		if err != nil {
			return err
		}
		if t == "" {
			return fmt.Errorf("phylo: unterminated TREES block")
		}
		switch strings.ToUpper(t) {
		case "TRANSLATE":
			for {
				key, err := tz.next()
				if err != nil {
					return err
				}
				// Commas separate entries; a quoted label leaves its
				// trailing comma as a standalone token.
				key = strings.TrimPrefix(key, ",")
				if key == ";" {
					break
				}
				if key == "" {
					continue
				}
				val, err := tz.next()
				if err != nil {
					return err
				}
				if val == ";" {
					return fmt.Errorf("phylo: TRANSLATE entry %q has no label", key)
				}
				translate[key] = strings.TrimSuffix(val, ",")
			}
		case "TREE", "UTREE":
			name, err := tz.next()
			if err != nil {
				return err
			}
			eq, err := tz.peek()
			if err != nil {
				return err
			}
			if eq == "=" {
				if _, err := tz.next(); err != nil {
					return err
				}
			}
			// The Newick string may have been split on '=' boundaries;
			// reassemble tokens until ';'.
			var b strings.Builder
			for {
				tok, err := tz.next()
				if err != nil {
					return err
				}
				if tok == ";" || tok == "" {
					break
				}
				b.WriteString(tok)
			}
			nw := applyTranslate(b.String(), translate) + ";"
			nf.Trees[name] = nw
			nf.TreeOrder = append(nf.TreeOrder, name)
		case "END", "ENDBLOCK":
			return tz.skipToSemicolon()
		default:
			if err := tz.skipToSemicolon(); err != nil {
				return err
			}
		}
	}
}

// applyTranslate substitutes translate-table keys for taxon labels in
// a Newick string.
func applyTranslate(nw string, table map[string]string) string {
	if len(table) == 0 {
		return nw
	}
	var b strings.Builder
	i := 0
	for i < len(nw) {
		c := nw[i]
		if c == '(' || c == ')' || c == ',' || c == ':' {
			b.WriteByte(c)
			i++
			continue
		}
		j := i
		for j < len(nw) && !strings.ContainsRune("(),:;", rune(nw[j])) {
			j++
		}
		label := nw[i:j]
		if repl, ok := table[label]; ok {
			// Labels with Newick-special characters must be re-quoted.
			if strings.ContainsAny(repl, " ():,;'") {
				repl = "'" + strings.ReplaceAll(repl, "'", "''") + "'"
			}
			b.WriteString(repl)
		} else {
			b.WriteString(label)
		}
		i = j
	}
	return b.String()
}

// writeNEXUS writes the alignment as a sequential NEXUS DATA block —
// the round-trip tests' way of producing input ParseNEXUS must accept.
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
