package shard

import (
	"fmt"

	"lattice/internal/lrm"
	"lattice/internal/sim"
)

// ShareMode selects how a cluster's shards share the grid federation.
type ShareMode string

const (
	// SharePartition statically assigns resource i of the federation
	// to shard i mod N. Each shard builds only its own resources;
	// there is no cross-shard contention and no lease machinery.
	SharePartition ShareMode = "partition"
	// ShareLease gives every shard the whole federation behind lease
	// gates: at any virtual instant exactly one shard holds each
	// resource's lease, and ownership rotates deterministically every
	// lease term. No coordination protocol runs between shards — the
	// owner is a pure function of (resource index, virtual time), so
	// every shard computes the same answer independently, which is
	// what keeps per-shard runs deterministic and crash-local.
	ShareLease ShareMode = "lease"
)

// DefaultLeaseTerm is the lease rotation period when none is set.
const DefaultLeaseTerm = 6 * sim.Hour

// Leases is the deterministic lease schedule of a ShareLease
// deployment: resource i is owned by shard (i + epoch) mod Shards,
// where epoch advances once per Term on the virtual clock. The
// rotation means every shard eventually fronts every resource, so a
// long-lived imbalance in per-shard load cannot starve anyone.
type Leases struct {
	Shards int
	Term   sim.Duration
}

// Owner returns the shard holding resource i's lease at virtual time
// now.
func (l Leases) Owner(i int, now sim.Time) int {
	if l.Shards <= 0 {
		panic(fmt.Sprintf("shard: lease schedule with %d shards", l.Shards))
	}
	term := l.Term
	if term <= 0 {
		term = DefaultLeaseTerm
	}
	epoch := int(float64(now) / float64(term))
	return ((i % l.Shards) + epoch) % l.Shards
}

// Gate wraps a resource LRM so a shard only places work on it while
// holding the lease. While unheld, Info reports zero CPUs — the
// scheduler's ranking skips zero-capacity candidates, so the resource
// simply vanishes from this shard's matchmaking — and Submit refuses
// outright as a second line of defence. Jobs already running when the
// lease rotates away keep running to completion (their callbacks pass
// through untouched), exactly like a real grid draining a resource
// whose allocation ended.
type Gate struct {
	inner lrm.LRM
	now   func() sim.Time
	held  func(now sim.Time) bool
}

// NewGate wraps inner; held reports whether this shard owns the
// resource's lease at a virtual instant, and now supplies the shard
// engine's clock.
func NewGate(inner lrm.LRM, now func() sim.Time, held func(sim.Time) bool) *Gate {
	return &Gate{inner: inner, now: now, held: held}
}

// Name delegates to the wrapped resource.
func (g *Gate) Name() string { return g.inner.Name() }

// Submit admits the job only while the lease is held.
func (g *Gate) Submit(j *lrm.Job) error {
	if !g.held(g.now()) {
		return fmt.Errorf("shard: lease for %s not held", g.inner.Name())
	}
	return g.inner.Submit(j)
}

// Cancel delegates: in-flight work stays cancellable after the lease
// rotates away (the grid level still owns the job).
func (g *Gate) Cancel(jobID string) bool { return g.inner.Cancel(jobID) }

// Info passes the resource state through while the lease is held and
// reports zero capacity otherwise. Kind, name and platform survive
// either way, so MDS entries stay alive (no false resource-death
// requeues) and kind-based matchmaking is unaffected.
func (g *Gate) Info() lrm.Info {
	info := g.inner.Info()
	if !g.held(g.now()) {
		info.TotalCPUs = 0
		info.FreeCPUs = 0
	}
	return info
}

// Stats delegates lifetime accounting.
func (g *Gate) Stats() lrm.Stats { return g.inner.Stats() }
