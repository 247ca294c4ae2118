package obs

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Exposition renders the registry in the Prometheus-style text format:
//
//	# HELP lattice_sched_jobs_submitted_total Jobs accepted ...
//	# TYPE lattice_sched_jobs_submitted_total counter
//	lattice_sched_jobs_submitted_total 42
//
// Histograms expand to cumulative _bucket series (with an le label)
// plus _sum and _count. Output ordering and float formatting are
// deterministic, so for a fixed simulation seed two runs expose
// byte-identical text.
func (r *Registry) Exposition() string {
	var b strings.Builder
	WriteExposition(&b, r.Snapshot())
	return b.String()
}

// WriteExposition writes snapshot series (already deterministically
// ordered by Registry.Snapshot) in the text exposition format.
func WriteExposition(b *strings.Builder, snaps []SeriesSnapshot) {
	lastName := ""
	for _, s := range snaps {
		if s.Name != lastName {
			lastName = s.Name
			if s.Help != "" {
				b.WriteString("# HELP ")
				b.WriteString(s.Name)
				b.WriteByte(' ')
				b.WriteString(strings.ReplaceAll(s.Help, "\n", " "))
				b.WriteByte('\n')
			}
			b.WriteString("# TYPE ")
			b.WriteString(s.Name)
			b.WriteByte(' ')
			b.WriteString(s.Kind.String())
			b.WriteByte('\n')
		}
		switch s.Kind {
		case KindHistogram:
			for _, bk := range s.Buckets {
				writeSample(b, s.Name+"_bucket", s.Labels, Label{Key: "le", Value: formatFloat(bk.UpperBound)}, float64(bk.Count))
			}
			writeSample(b, s.Name+"_sum", s.Labels, Label{}, s.Sum)
			writeSample(b, s.Name+"_count", s.Labels, Label{}, float64(s.Count))
		default:
			writeSample(b, s.Name, s.Labels, Label{}, s.Value)
		}
	}
}

// writeSample writes one "name{labels} value" line; extra, when its
// key is non-empty, is appended after the series labels.
func writeSample(b *strings.Builder, name string, labels []Label, extra Label, value float64) {
	b.WriteString(name)
	if len(labels) > 0 || extra.Key != "" {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			writeLabel(b, l)
		}
		if extra.Key != "" {
			if len(labels) > 0 {
				b.WriteByte(',')
			}
			writeLabel(b, extra)
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(value))
	b.WriteByte('\n')
}

func writeLabel(b *strings.Builder, l Label) {
	b.WriteString(l.Key)
	b.WriteString(`="`)
	b.WriteString(escapeLabel(l.Value))
	b.WriteByte('"')
}

// formatFloat renders a sample value: shortest round-trip form, with
// the infinities spelled the way the exposition format expects.
func formatFloat(v float64) string {
	return string(appendFloat(make([]byte, 0, 24), v))
}

// appendFloat is formatFloat appending to dst — the one spelling of a
// float shared by the exposition and the journal framing.
func appendFloat(dst []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(dst, "+Inf"...)
	case math.IsInf(v, -1):
		return append(dst, "-Inf"...)
	default:
		return strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
}

// ParseExposition parses text-exposition output back into a flat
// series→value map keyed by "name{labels}" exactly as exposed.
// Comment and blank lines are skipped; any other malformed line is an
// error. It is the inverse the smoke check (cmd/lattice -smoke) uses.
func ParseExposition(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("obs: exposition line %d: no value separator in %q", ln+1, line)
		}
		key, valStr := line[:i], line[i+1:]
		var v float64
		switch valStr {
		case "+Inf":
			v = math.Inf(1)
		case "-Inf":
			v = math.Inf(-1)
		default:
			var err error
			if v, err = strconv.ParseFloat(valStr, 64); err != nil {
				return nil, fmt.Errorf("obs: exposition line %d: bad value %q", ln+1, valStr)
			}
		}
		out[key] = v
	}
	return out, nil
}
