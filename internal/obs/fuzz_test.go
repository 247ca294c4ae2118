package obs

import (
	"strings"
	"testing"
)

// FuzzParseExposition feeds the exposition parser arbitrary text, which
// must come back as a map or an error, never a panic. The same input
// then becomes a label value (quotes, backslashes, newlines, spaces)
// and help text of a counter, a gauge and a histogram: parsing that
// registry's Exposition must succeed, with every sample line its own
// key carrying its own value.
func FuzzParseExposition(f *testing.F) {
	f.Add(`lattice_jobs_total{policy="full"} 12` + "\n# TYPE lattice_jobs_total counter\n")
	f.Add(`quote" slash\ newline` + "\n")
	f.Add("x +Inf\ny -Inf\nz NaN\n  \t\r\n")
	f.Add(`le="1"} 3 {`)
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		if m, err := ParseExposition(s); err == nil && m == nil {
			t.Fatal("ParseExposition returned neither a map nor an error")
		}

		r := NewRegistry()
		r.Counter("lattice_fuzz_total", s, L("v", s)).Add(2)
		r.Gauge("lattice_fuzz_level", "", L("a", "fixed"), L("v", s)).Set(-1.5)
		r.Histogram("lattice_fuzz_seconds", s, []float64{1}, L("v", s)).Observe(3)
		text := r.Exposition()
		m, err := ParseExposition(text)
		if err != nil {
			t.Fatalf("exposition does not parse back: %v\n%s", err, text)
		}
		samples := 0
		for _, line := range strings.Split(text, "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			samples++
			i := strings.LastIndexByte(line, ' ')
			if v, ok := m[line[:i]]; !ok || formatFloat(v) != line[i+1:] {
				t.Fatalf("sample line %q came back as %v (present %v)\n%s", line, v, ok, text)
			}
		}
		// 1 counter + 1 gauge + 2 buckets, _sum and _count.
		if samples != 6 || len(m) != samples {
			t.Fatalf("%d sample lines parsed to %d keys, want 6 and 6\n%s", samples, len(m), text)
		}
	})
}
