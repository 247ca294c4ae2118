package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"

	"lattice/internal/faults"
	"lattice/internal/gsbl"
	"lattice/internal/obs"
	"lattice/internal/shard"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// ClusterConfig describes a sharded multi-coordinator deployment: N
// independent Lattice shards behind a deterministic router.
type ClusterConfig struct {
	// Shards is the coordinator count (≥ 1).
	Shards int
	// Share has one accepted value, shard.SharePartition (or empty):
	// resource i of Base.Resources belongs to shard i mod N. It is
	// kept only for the ledger's call site.
	Share shard.ShareMode
	// Base is the per-shard deployment template. Seed, Durable and
	// Faults are derived per shard and must be left at their zero
	// values here; ResourceWrap must be left unset.
	Base Config
	// DurableRoot, when non-empty, gives each shard its own
	// write-ahead-log directory shard.Dir(root, k), so recovery stays
	// local to a crashed shard. Empty disables durability cluster-wide.
	DurableRoot string
	// ShardFaults, when non-nil, supplies shard k's fault schedule
	// (nil return: no faults on that shard). Crash events stop only
	// that shard's engine.
	ShardFaults func(k int) *faults.Schedule
}

// Cluster is a sharded deployment: N Lattices, each with its own
// engine, obs hub, WAL directory, fault injector and slice of the
// federation, coordinated only through the router hash, so shards can
// be advanced independently and a crash never leaves cross-shard state
// half-written.
//
// The cluster itself is single-threaded like the engines it drives:
// submissions, RunUntil and recovery belong to one goroutine. Handler
// and Pump are the HTTP-facing pair and serialize through the
// per-shard portal locks, exactly like a single Lattice.
type Cluster struct {
	cfg    ClusterConfig
	Shards []*Lattice
	// origins[k] is the origin of shard k's scheduled arrivals,
	// "shard<k>/core".
	origins []string
}

// NewCluster assembles a sharded deployment. Shard k runs with seed
// shard.Seed(Base.Seed, k), ID prefix shard.IDPrefix(k), and its
// slice of the federation; with DurableRoot set each shard writes its
// own WAL under shard.Dir(root, k), and a shard whose directory
// already holds state resumes from it (Shards[k].Recovery says how) — arrivals the previous
// process scheduled included: each was a durable input from the moment
// it was scheduled, and the resumed shard delivers the ones not yet due.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("core: cluster needs at least 1 shard, got %d", cfg.Shards)
	}
	if cfg.Share != "" && cfg.Share != shard.SharePartition {
		return nil, fmt.Errorf("core: unknown share mode %q; shards share the federation only as %q", cfg.Share, shard.SharePartition)
	}
	if cfg.Base.Durable != "" || cfg.Base.Faults != nil || cfg.Base.ResourceWrap != nil {
		return nil, fmt.Errorf("core: cluster base config must leave Durable, Faults and ResourceWrap unset")
	}
	c := &Cluster{
		cfg:     cfg,
		Shards:  make([]*Lattice, cfg.Shards),
		origins: make([]string, cfg.Shards),
	}
	for k := 0; k < cfg.Shards; k++ {
		c.origins[k] = shard.Origin(k, "core")
		l, err := newLattice(c.shardConfig(k), shard.IDPrefix(k))
		if err != nil {
			return nil, fmt.Errorf("core: building shard %d: %w", k, err)
		}
		c.Shards[k] = l
	}
	return c, nil
}

// shardConfig derives shard k's Config from the cluster template.
func (c *Cluster) shardConfig(k int) Config {
	cfg := c.cfg.Base
	cfg.Seed = shard.Seed(c.cfg.Base.Seed, k)
	if c.cfg.DurableRoot != "" {
		cfg.Durable = shard.Dir(c.cfg.DurableRoot, k)
	}
	if c.cfg.ShardFaults != nil {
		cfg.Faults = c.cfg.ShardFaults(k)
	}
	// Static partition: resource i belongs to shard i mod N, so only
	// the shard that owns the reference cluster forks to it.
	var mine []ResourceSpec
	for i, rs := range c.cfg.Base.Resources {
		if i%c.cfg.Shards == k {
			mine = append(mine, rs)
		}
	}
	cfg.Resources = mine
	return cfg
}

// Size reports the shard count.
func (c *Cluster) Size() int { return len(c.Shards) }

// Route reports the shard that owns (user, origin) — the same pure
// hash every entry point uses, exported so tests and the experiment
// can predict placement.
func (c *Cluster) Route(user, origin string) int {
	return shard.Route(user, origin, len(c.Shards))
}

// ScheduleSubmission arranges for sub to arrive at virtual time at on
// its owner shard, and returns the shard. The shard records the
// submission now, with its due time, and delivers it at that time; the
// record is the arrival's only state, so recovery and a restart bring
// back every arrival not yet due. A rejected submission has no record,
// so it is only noted as an ingest error on its shard, never journaled.
func (c *Cluster) ScheduleSubmission(at sim.Time, sub workload.Submission) int {
	k := c.Route(sub.UserEmail, "core")
	l := c.Shards[k]
	if _, err := l.submit(gsbl.Request{Sub: sub, Origin: c.origins[k], Scheduled: true, Due: at}); err != nil {
		l.Service.NoteIngestErr(fmt.Errorf("core: scheduling an arrival at %v: %w", at, err))
	}
	return k
}

// PendingArrivals counts scheduled submissions that have not yet been
// delivered to their shard — drive the cluster until this reaches
// zero before treating quiet engines as "done", because a scheduled
// workload is idle between arrivals.
func (c *Cluster) PendingArrivals() int {
	n := 0
	for _, l := range c.Shards {
		n += l.Service.Arrivals()
	}
	return n
}

// RunUntil advances every non-crashed shard to t, one engine at a
// time. Shards never exchange events, so sequential advancement is
// equivalent to any interleaving; a shard whose injector crashed
// stays frozen until RecoverShard.
func (c *Cluster) RunUntil(t sim.Time) {
	for _, l := range c.Shards {
		if l.crashed() {
			continue
		}
		l.Engine.RunUntil(t)
	}
}

// Pump advances every non-crashed shard by d under its portal lock —
// the HTTP-safe twin of RunUntil, driven by cmd/lattice's ticker.
func (c *Cluster) Pump(d sim.Duration) {
	for _, l := range c.Shards {
		if l.crashed() {
			continue
		}
		l.Portal.Pump(d)
	}
}

// CrashedShards lists the shards whose fault injector has fired a
// crash and stopped the engine.
func (c *Cluster) CrashedShards() []int {
	var out []int
	for k, l := range c.Shards {
		if l.crashed() {
			out = append(out, k)
		}
	}
	return out
}

// crashed reports whether the shard's fault injector has fired a crash
// and stopped its engine.
func (l *Lattice) crashed() bool { return l.Faults != nil && l.Faults.Crashed() }

// RecoverShard rebuilds shard k from its own WAL directory and swaps it
// in — the other shards are untouched, which is the point of per-shard
// durability. The dead shard's log handle is closed first and nothing
// more is written to it, as the process's death would have it; its
// error, if any, is the dead process's, and the rebuild verifies what
// reached the log. Nothing is re-installed afterwards: replaying a
// scheduled arrival's record schedules it again, so the rebuilt shard
// already holds every arrival the dead one had not yet delivered.
func (c *Cluster) RecoverShard(k int) (*RecoveryReport, error) {
	if k < 0 || k >= len(c.Shards) {
		return nil, fmt.Errorf("core: no shard %d in a %d-shard cluster", k, len(c.Shards))
	}
	if c.cfg.DurableRoot == "" {
		return nil, fmt.Errorf("core: cluster has no durable root; shard %d cannot be recovered", k)
	}
	c.Shards[k].CloseDurable() //lint:allow errdrop -- the dead process's error; the rebuild verifies the log itself
	l, err := newLattice(c.shardConfig(k), shard.IDPrefix(k))
	if err != nil {
		return nil, fmt.Errorf("core: recovering shard %d: %w", k, err)
	}
	c.Shards[k] = l
	return l.Recovery, nil
}

// ShardDigests returns each shard's journal digest, in shard order.
func (c *Cluster) ShardDigests() []string {
	out := make([]string, len(c.Shards))
	for k, l := range c.Shards {
		out[k] = l.Obs.Journal.Digest()
	}
	return out
}

// Digest folds the per-shard journal digests into one cluster
// identity: equal digests mean every shard replayed the same history.
func (c *Cluster) Digest() string {
	h := sha256.New()
	for k, d := range c.ShardDigests() {
		fmt.Fprintf(h, "%d:%s\n", k, d) //lint:allow errdrop -- hash.Hash documents that Write never errors
	}
	return hex.EncodeToString(h.Sum(nil))
}

// mergedSnapshot returns every shard's metrics with a shard label, in
// deterministic order (see shard.MergeSnapshots).
func (c *Cluster) mergedSnapshot() []obs.SeriesSnapshot {
	perShard := make([][]obs.SeriesSnapshot, len(c.Shards))
	for k, l := range c.Shards {
		perShard[k] = l.Obs.Registry.Snapshot()
	}
	return shard.MergeSnapshots(perShard)
}

// MergedExposition renders the merged metrics in text exposition
// format — the cluster-wide /metrics body.
func (c *Cluster) MergedExposition() string {
	var b strings.Builder
	obs.WriteExposition(&b, c.mergedSnapshot())
	return b.String()
}

// Handler returns the cluster's front router: one HTTP surface that
// proxies each request to the owning shard's portal. Ownership is
// read from the request itself — a shard-prefixed ID in the path, a
// registered token, or the submitting email — so the router holds no
// state of its own and never needs recovery.
func (c *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if _, err := w.Write([]byte(c.MergedExposition())); err != nil {
			c.Shards[0].Portal.NoteClientErr()
		}
	})
	mux.HandleFunc("/grid/status", func(w http.ResponseWriter, r *http.Request) {
		c.Shards[0].Portal.WriteJSON(w, c.statusJSON())
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		c.shardFor(r).Portal.Handler().ServeHTTP(w, r)
	})
	return mux
}

// statusJSON merges every shard's /grid/status view, each read under
// that shard's portal lock.
func (c *Cluster) statusJSON() any {
	type shardStatus struct {
		Shard     int           `json:"shard"`
		Crashed   bool          `json:"crashed"`
		Time      float64       `json:"time"`
		Resources []resourceRow `json:"resources"`
		Scheduler any           `json:"scheduler"`
		// Present only on a shard with something to report.
		RetrainErrors []string `json:"retrainErrors,omitempty"`
		DurableError  string   `json:"durableError,omitempty"`
	}
	out := make([]shardStatus, len(c.Shards))
	for k, l := range c.Shards {
		l.Portal.Locked(func() {
			out[k] = shardStatus{
				Shard:     k,
				Crashed:   l.crashed(),
				Time:      float64(l.Engine.Now()),
				Resources: l.resourceRows(),
				Scheduler: l.Scheduler.Stats(),
			}
			out[k].RetrainErrors, out[k].DurableError = l.errorStatus()
		})
	}
	return map[string]any{"shards": out}
}

// shardFor resolves the shard that owns a request, in precedence
// order: a shard-prefixed ID in the path, the registered token, the
// submitting email, and finally shard 0 for unowned surfaces (the
// index page, the app description, fresh registrations without an
// email — the registration handler itself rejects those).
func (c *Cluster) shardFor(r *http.Request) *Lattice {
	// An ID right after its route names its shard, e.g.
	// /batch/shard2-batch-000017/status → 2. A path without the route
	// keeps its leading slash, which no shard prefix matches.
	for _, route := range []string{"/batch/", "/trace/", "/workflow/"} {
		if k, ok := shard.IDShard(strings.TrimPrefix(r.URL.Path, route), len(c.Shards)); ok {
			return c.Shards[k]
		}
	}
	if tok := r.Header.Get("X-Lattice-Token"); tok != "" {
		for _, l := range c.Shards {
			if _, ok := l.Portal.LookupToken(tok); ok {
				return l
			}
		}
	}
	if email := r.FormValue("email"); strings.Contains(email, "@") {
		return c.Shards[shard.Route(email, "portal", len(c.Shards))]
	}
	return c.Shards[0]
}

// CloseDurable closes every shard's write-ahead log.
func (c *Cluster) CloseDurable() error {
	var first error
	for k, l := range c.Shards {
		if err := l.CloseDurable(); err != nil && first == nil {
			first = fmt.Errorf("core: closing shard %d log: %w", k, err)
		}
	}
	return first
}
