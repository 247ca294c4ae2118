// Package mds reimplements the slice of the Globus Monitoring and
// Discovery Service the grid-level scheduler depends on: scheduler
// providers periodically publish resource state into an index, entries
// carry a short TTL ("valid for a short lifetime, typically on the
// order of minutes"), indexes propagate upstream into a central index,
// and resources whose information goes stale are marked offline so "no
// new jobs are scheduled there".
package mds

import (
	"fmt"
	"sort"

	"lattice/internal/lrm"
	"lattice/internal/sim"
)

// Entry is one resource's state as known to an index.
type Entry struct {
	Info      lrm.Info
	UpdatedAt sim.Time
}

// Index is an MDS database of resource entries.
type Index struct {
	eng     *sim.Engine
	ttl     sim.Duration
	entries map[string]Entry

	// view caches the fresh entries sorted by name. It is replaced —
	// never mutated — when a Publish or the expiry of its oldest entry
	// invalidates it, so a slice handed out by View stays as it was.
	view        []Entry
	viewVersion uint64   // counts rebuilds, so View never reports 0
	viewDirty   bool     // a Publish happened since the last rebuild
	viewOldest  sim.Time // smallest UpdatedAt in view: the first to expire
}

// NewIndex creates an index whose entries expire after ttl.
func NewIndex(eng *sim.Engine, ttl sim.Duration) (*Index, error) {
	if ttl <= 0 {
		return nil, fmt.Errorf("mds: TTL must be positive")
	}
	return &Index{eng: eng, ttl: ttl, entries: make(map[string]Entry), viewDirty: true}, nil
}

// Publish inserts or refreshes a resource entry.
func (x *Index) Publish(info lrm.Info) {
	x.entries[info.Name] = Entry{Info: info, UpdatedAt: x.eng.Now()}
	x.viewDirty = true
}

// fresh reports whether the entry is within its TTL.
func (x *Index) fresh(e Entry) bool {
	return x.eng.Now().Sub(e.UpdatedAt) <= x.ttl
}

// Lookup returns a resource's entry; ok is false when the resource is
// unknown or its entry has expired (the resource is considered
// offline).
func (x *Index) Lookup(name string) (Entry, bool) {
	e, ok := x.entries[name]
	if !ok || !x.fresh(e) {
		return Entry{}, false
	}
	return e, true
}

// Snapshot returns all fresh entries sorted by resource name, in a
// slice the caller owns. It reads the index without touching the
// cached view, so status readers never write to scheduler state.
func (x *Index) Snapshot() []Entry {
	out, _ := x.collect()
	return out
}

// collect gathers the fresh entries sorted by name, and the smallest
// UpdatedAt among them (the first to expire).
func (x *Index) collect() (out []Entry, oldest sim.Time) {
	out = make([]Entry, 0, len(x.entries))
	for _, e := range x.entries {
		if x.fresh(e) {
			if len(out) == 0 || e.UpdatedAt < oldest {
				oldest = e.UpdatedAt
			}
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Info.Name < out[j].Info.Name })
	return out, oldest
}

// View returns what Snapshot returns, from a cache, with a version
// (never 0) that changes whenever the contents may have. The slice is shared and
// immutable: callers may keep it and must not modify it. It is rebuilt
// only after a Publish or once its oldest entry has outlived the TTL;
// an entry stale at a rebuild stays stale until republished, so nothing
// else can change the answer.
func (x *Index) View() ([]Entry, uint64) {
	if x.viewDirty || (len(x.view) > 0 && !x.fresh(Entry{UpdatedAt: x.viewOldest})) {
		x.view, x.viewOldest = x.collect()
		x.viewVersion++
		x.viewDirty = false
	}
	return x.view, x.viewVersion
}

// Offline returns the names of resources whose entries have gone
// stale, sorted.
//
//lint:allow deadexport -- the operator's view of TTL expiry; the scheduler asks per resource (Lookup), the staleness tests ask for the list
func (x *Index) Offline() []string {
	var out []string
	for name, e := range x.entries {
		if !x.fresh(e) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Sink consumes resource-state publications. *Index satisfies it
// directly; the fault injector wraps one to model publication drops
// and staleness bursts without the provider noticing.
type Sink interface {
	Publish(info lrm.Info)
}

// Provider is a scheduler provider: it polls one local resource and
// publishes its Info into an index on a fixed period (the Condor
// provider of the paper parses condor_status the same way).
type Provider struct {
	stop func()
}

// StartProvider begins publishing src's state into dst every period.
// The first publication happens immediately.
func StartProvider(eng *sim.Engine, dst Sink, src lrm.LRM, period sim.Duration) (*Provider, error) {
	if period <= 0 {
		return nil, fmt.Errorf("mds: provider period must be positive")
	}
	dst.Publish(src.Info())
	stop := eng.Every(period, func() {
		dst.Publish(src.Info())
	})
	return &Provider{stop: stop}, nil
}

// Stop halts publication — the resource's entry then ages out of the
// index, exactly how a crashed remote Globus container disappears from
// the central MDS.
//
//lint:allow deadexport -- how the MDS and scheduler tests kill one container; the simulation kills them through the fault injector's sink instead
func (p *Provider) Stop() { p.stop() }

// Propagator periodically copies fresh entries from one index into
// another, modelling the hierarchical MDS aggregation between Globus
// containers ("information in this MDS database can be periodically
// propagated to another MDS database running in another Globus
// container process").
type Propagator struct {
	stop func()
}

// StartPropagator copies fresh entries of src into dst every period.
//
//lint:allow deadexport -- the paper's hierarchical MDS; core deployments run one index, the integration test runs two
func StartPropagator(eng *sim.Engine, src, dst *Index, period sim.Duration) (*Propagator, error) {
	if period <= 0 {
		return nil, fmt.Errorf("mds: propagator period must be positive")
	}
	propagate := func() {
		for _, e := range src.Snapshot() {
			// Preserve origin timestamps? Central entries refresh on
			// arrival: staleness is measured per hop, as in MDS.
			dst.Publish(e.Info)
		}
	}
	propagate()
	stop := eng.Every(period, propagate)
	return &Propagator{stop: stop}, nil
}

// Stop halts propagation.
//
//lint:allow deadexport -- a dead link between containers, as the propagation tests model it
func (p *Propagator) Stop() { p.stop() }
