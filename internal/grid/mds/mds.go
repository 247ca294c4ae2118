// Package mds reimplements the slice of the Globus Monitoring and
// Discovery Service the grid-level scheduler depends on: scheduler
// providers periodically publish resource state into an index, entries
// carry a short TTL ("valid for a short lifetime, typically on the
// order of minutes"), and a resource whose information goes stale is
// offline, so "no new jobs are scheduled there".
package mds

import (
	"fmt"
	"slices"
	"strings"

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
	slices.SortFunc(out, func(a, b Entry) int { return strings.Compare(a.Info.Name, b.Info.Name) })
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

// Sink consumes resource-state publications. *Index satisfies it
// directly; the fault injector wraps one to model publication drops
// and staleness bursts without the provider noticing.
type Sink interface {
	Publish(info lrm.Info)
}

// StartProvider is a scheduler provider: it publishes src's state
// into dst now and then every period, polling one local resource the
// way the paper's Condor provider parses condor_status. A provider
// runs for the life of the deployment; a container that stops
// publishing is modelled by a Sink that drops its publications (the
// fault injector's), and its entry then ages out of the index.
func StartProvider(eng *sim.Engine, dst Sink, src lrm.LRM, period sim.Duration) error {
	if period <= 0 {
		return fmt.Errorf("mds: provider period must be positive")
	}
	dst.Publish(src.Info())
	eng.Every(period, func() {
		dst.Publish(src.Info())
	})
	return nil
}
