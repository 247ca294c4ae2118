package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension. Series identity is the metric name
// plus the sorted label set.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label at a call site.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind distinguishes the metric families.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// DurationBuckets are the default histogram bounds for virtual-time
// durations, spanning the grid's scales: seconds (staging), minutes
// (queue waits), hours (job runtimes), days/weeks (BOINC turnaround).
var DurationBuckets = []float64{
	1, 10, 60, 300, 1800, 3600, 6 * 3600, 24 * 3600, 7 * 24 * 3600, 30 * 24 * 3600,
}

// cell is an atomic float64 that adds by compare-and-swap.
type cell struct{ bits atomic.Uint64 }

func (c *cell) add(v float64) {
	for {
		old := c.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (c *cell) load() float64 { return math.Float64frombits(c.bits.Load()) }

// Counter is a monotonically increasing metric. Increments are
// lock-free.
type Counter struct{ v cell }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas are ignored (counters
// are monotone by contract). Nil-safe.
func (c *Counter) Add(v float64) {
	if c == nil || v <= 0 {
		return
	}
	c.v.add(v)
}

// Value reads the counter.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v.load()
}

// Gauge is a set-or-adjust metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value reads the gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bounds are upper
// bounds in ascending order; an implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1
	sum    cell
	count  atomic.Uint64
}

// Observe records one sample. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// Bucket is one cumulative histogram cell in a snapshot.
type Bucket struct {
	UpperBound float64 `json:"le"` // +Inf for the last
	Count      uint64  `json:"count"`
}

// SeriesSnapshot is one metric series at a point in time.
type SeriesSnapshot struct {
	Name   string
	Help   string
	Kind   Kind
	Labels []Label
	// Value holds counter/gauge readings.
	Value float64
	// Histogram fields.
	Sum     float64
	Count   uint64
	Buckets []Bucket // cumulative
}

// family groups the series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	bounds []float64

	mu       sync.Mutex
	bySeries map[string]any // canonical label key → handle
	ordered  []seriesEntry  // kept sorted by key
}

type seriesEntry struct {
	key    string
	labels []Label
	metric any
}

// Registry holds metric families. Handle creation takes a mutex;
// updates through the returned handles are lock-free.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]*family
	ordered []*family // kept sorted by name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// familyFor returns (creating if needed) the family for name,
// panicking on a kind mismatch — that is a programming error at the
// instrumentation site, not a runtime condition.
func (r *Registry) familyFor(name, help string, kind Kind, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", name, f.kind, kind))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, bounds: bounds, bySeries: make(map[string]any)}
	r.byName[name] = f
	i := sort.Search(len(r.ordered), func(i int) bool { return r.ordered[i].name >= name })
	r.ordered = append(r.ordered, nil)
	copy(r.ordered[i+1:], r.ordered[i:])
	r.ordered[i] = f
	return f
}

// series returns (creating if needed) the handle for a label set: a
// *Counter, *Gauge or *Histogram by the family's kind.
func (f *family) series(labels []Label) any {
	key, sorted := canonLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.bySeries[key]; ok {
		return m
	}
	var m any
	switch f.kind {
	case KindCounter:
		m = &Counter{}
	case KindGauge:
		m = &Gauge{}
	default:
		m = &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds)+1)}
	}
	f.bySeries[key] = m
	i := sort.Search(len(f.ordered), func(i int) bool { return f.ordered[i].key >= key })
	f.ordered = append(f.ordered, seriesEntry{})
	copy(f.ordered[i+1:], f.ordered[i:])
	f.ordered[i] = seriesEntry{key: key, labels: append([]Label(nil), sorted...), metric: m}
	return m
}

// Counter returns the counter for name+labels, creating both the
// family and the series on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.familyFor(name, help, KindCounter, nil).series(labels).(*Counter)
}

// Gauge returns the gauge for name+labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.familyFor(name, help, KindGauge, nil).series(labels).(*Gauge)
}

// Histogram returns the histogram for name+labels. Bounds apply to the
// whole family and are fixed by the first registration; nil selects
// DurationBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DurationBuckets
	}
	return r.familyFor(name, help, KindHistogram, bounds).series(labels).(*Histogram)
}

// Snapshot returns every series in deterministic order: families
// sorted by name, series sorted by canonical label key. Histogram
// buckets are cumulative.
func (r *Registry) Snapshot() []SeriesSnapshot {
	r.mu.Lock()
	fams := append([]*family(nil), r.ordered...)
	r.mu.Unlock()
	var out []SeriesSnapshot
	for _, f := range fams {
		f.mu.Lock()
		entries := append([]seriesEntry(nil), f.ordered...)
		f.mu.Unlock()
		for _, e := range entries {
			s := SeriesSnapshot{Name: f.name, Help: f.help, Kind: f.kind, Labels: e.labels}
			switch m := e.metric.(type) {
			case *Counter:
				s.Value = m.Value()
			case *Gauge:
				s.Value = m.Value()
			case *Histogram:
				var cum uint64
				s.Buckets = make([]Bucket, 0, len(m.bounds)+1)
				for i := range m.counts {
					cum += m.counts[i].Load()
					ub := math.Inf(1)
					if i < len(m.bounds) {
						ub = m.bounds[i]
					}
					s.Buckets = append(s.Buckets, Bucket{UpperBound: ub, Count: cum})
				}
				s.Count = m.count.Load()
				s.Sum = m.sum.load()
			}
			out = append(out, s)
		}
	}
	return out
}

// canonLabels returns the canonical series key and the key-sorted
// labels. Call sites list labels in key order almost always, so the
// copy and sort happen only when they do not; otherwise the returned
// slice is the caller's own, which a retainer must copy.
func canonLabels(labels []Label) (string, []Label) {
	if len(labels) == 0 {
		return "", nil
	}
	sorted := labels
	for i := 1; i < len(labels); i++ {
		if labels[i].Key < labels[i-1].Key {
			sorted = append([]Label(nil), labels...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
			break
		}
	}
	var b strings.Builder
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String(), sorted
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabel escapes a label value for the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	return labelEscaper.Replace(v)
}
