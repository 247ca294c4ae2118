// Package obs is the grid's observability subsystem: a metrics
// registry (counters, gauges, histograms with label sets) and a
// job-lifecycle event journal with a stable digest. A batch's trace —
// a root span with one child per grid job — is not a third record but
// a view folded from the journal on request (Journal.Trace).
//
// Every timestamp in this package is *virtual* time read from a
// sim.Clock (in practice the sim.Engine); nothing here ever touches
// the wall clock. For a fixed seed, two runs of the same simulation
// therefore produce bit-identical metric snapshots, traces, and
// journal digests — which is what lets experiments assert on internal
// behaviour, not just final outputs.
//
// All entry points are nil-safe: a nil *Obs (or a handle obtained from
// one) is a no-op, so components can be instrumented unconditionally
// and run un-wired in unit tests at zero cost.
package obs

import "lattice/internal/sim"

// Obs bundles the two observability facilities that share one
// virtual clock. Construct it with New and hand it to each component
// (metasched, the LRMs, the BOINC server, GSBL, the portal).
type Obs struct {
	Registry *Registry
	Journal  *Journal
}

// New creates an observability hub reading virtual time from clock
// (normally the simulation's *sim.Engine).
func New(clock sim.Clock) *Obs {
	return &Obs{
		Registry: NewRegistry(),
		Journal:  NewJournal(clock),
	}
}

// Counter returns the registered counter for name+labels, creating it
// on first use. Nil-safe: a nil *Obs yields a nil (no-op) handle.
func (o *Obs) Counter(name, help string, labels ...Label) *Counter {
	if o == nil || o.Registry == nil {
		return nil
	}
	return o.Registry.Counter(name, help, labels...)
}

// Gauge returns the registered gauge for name+labels.
func (o *Obs) Gauge(name, help string, labels ...Label) *Gauge {
	if o == nil || o.Registry == nil {
		return nil
	}
	return o.Registry.Gauge(name, help, labels...)
}

// Histogram returns the registered histogram for name+labels; nil
// bounds select DurationBuckets.
func (o *Obs) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if o == nil || o.Registry == nil {
		return nil
	}
	return o.Registry.Histogram(name, help, bounds, labels...)
}

// Record appends a job-lifecycle event to the journal, stamped with
// the current virtual time.
func (o *Obs) Record(batch, job string, stage Stage, resource, detail string) {
	if o == nil || o.Journal == nil {
		return
	}
	o.Journal.Record(batch, job, stage, resource, detail)
}

// Exposition renders the registry in the text exposition format; a nil
// *Obs renders as empty.
func (o *Obs) Exposition() string {
	if o == nil || o.Registry == nil {
		return ""
	}
	return o.Registry.Exposition()
}
