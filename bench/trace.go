package main

import (
	"time"

	"lattice/internal/lrm"
	"lattice/internal/metasched"
	"lattice/internal/workload"
)

// span is one timed call the driver made into the program under
// test. Spans of one pass share the workload id; Parent is the index
// of the enclosing span in the same pass, -1 at top level.
type span struct {
	Workload string `json:"workload"`
	Name     string `json:"name"`   // the exported call, e.g. "Cluster.RunUntil"
	Metric   string `json:"metric"` // the per-layer metric its duration adds to
	Parent   int    `json:"parent"`
	StartNs  int64  `json:"start_ns"` // since the tracer was made
	EndNs    int64  `json:"end_ns"`
}

// tracer is the in-memory span recorder of a traced pass. A tracer
// that is off (or nil) records nothing and reads no clock, so the
// untraced pass pays only a nil check per driver call.
type tracer struct {
	on       bool
	workload string
	t0       time.Time
	spans    []span
	open     []int
}

func newTracer(workload string, on bool) *tracer {
	return &tracer{on: on, workload: workload, t0: time.Now()}
}

func (t *tracer) enabled() bool { return t != nil && t.on }

func noop() {}

// span opens a span and returns the function that closes it.
func (t *tracer) span(name, metric string) func() {
	if !t.enabled() {
		return noop
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Workload: t.workload, Name: name, Metric: metric, Parent: parent, StartNs: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// fold adds every span's duration to the metric it names.
func (t *tracer) fold(layer map[string]float64) {
	for _, s := range t.spans {
		if s.Metric != "" {
			layer[s.Metric] += float64(s.EndNs-s.StartNs) / 1e9
		}
	}
}

// callTimer accumulates count and wall time of a delegated call that
// happens too often to record a span each (one per grid job).
type callTimer struct {
	n  int
	ns int64
}

// timedLRM is the delegating wrapper a traced batch2000 pass installs
// through core.Config.ResourceWrap: it times Submit and counts Info
// and changes nothing else.
type timedLRM struct {
	lrm.LRM
	submit *callTimer
	infos  *int
}

func (w timedLRM) Submit(j *lrm.Job) error {
	t0 := time.Now()
	err := w.LRM.Submit(j)
	w.submit.ns += time.Since(t0).Nanoseconds()
	w.submit.n++
	return err
}

func (w timedLRM) Info() lrm.Info {
	*w.infos++
	return w.LRM.Info()
}

// timedPredictor is the delegating wrapper a traced pass installs with
// Scheduler.SetPredictor.
type timedPredictor struct {
	inner metasched.Predictor
	calls *callTimer
}

func (p timedPredictor) Predict(spec *workload.JobSpec) (float64, error) {
	t0 := time.Now()
	v, err := p.inner.Predict(spec)
	p.calls.ns += time.Since(t0).Nanoseconds()
	p.calls.n++
	return v, err
}
