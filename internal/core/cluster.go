package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"

	"lattice/internal/faults"
	"lattice/internal/gsbl"
	"lattice/internal/lrm"
	"lattice/internal/obs"
	"lattice/internal/shard"
	"lattice/internal/sim"
	"lattice/internal/wal"
	"lattice/internal/workload"
)

// ClusterConfig describes a sharded multi-coordinator deployment: N
// independent Lattice shards behind a deterministic router.
type ClusterConfig struct {
	// Shards is the coordinator count (≥ 1).
	Shards int
	// Share selects how the grid federation is divided among shards:
	// SharePartition (the default) statically assigns resource i of
	// Base.Resources to shard i mod N; ShareLease gives every shard a
	// replica of the full federation gated by a rotating lease, so each
	// resource serves exactly one shard per lease term (see
	// shard.Leases).
	Share shard.ShareMode
	// LeaseTerm is the lease rotation period under ShareLease
	// (default shard.DefaultLeaseTerm).
	LeaseTerm sim.Duration
	// Base is the per-shard deployment template. Seed, IDPrefix,
	// Durable, Faults and ResourceWrap are derived per shard and must
	// be left at their zero values here.
	Base Config
	// DurableRoot, when non-empty, gives each shard its own
	// write-ahead-log directory root/shard<k>, so recovery stays local
	// to a crashed shard. Empty disables durability cluster-wide.
	DurableRoot string
	// ShardFaults, when non-nil, supplies shard k's fault schedule
	// (nil return: no faults on that shard). Crash events stop only
	// that shard's engine.
	ShardFaults func(k int) *faults.Schedule
}

// pendingArrival is one future submission scheduled on a shard's
// clock. The cluster keeps this bookkeeping outside the engines
// because a crashed engine loses its scheduled closures: recovery
// replays enqueues up to the durable watermark from the WAL and
// re-schedules the still-undelivered arrivals from this list.
type pendingArrival struct {
	at        sim.Time
	sub       workload.Submission
	origin    string
	delivered bool
}

// Cluster is a sharded deployment: N Lattices, each with its own
// engine, obs hub, WAL directory and fault injector, coordinated only
// through pure functions of the virtual clock (the router hash and
// the lease rotation), so shards can be advanced independently and a
// crash never leaves cross-shard state half-written.
//
// The cluster itself is single-threaded like the engines it drives:
// submissions, RunUntil and recovery belong to one goroutine. Handler
// and Pump are the HTTP-facing pair and serialize through the
// per-shard portal locks, exactly like a single Lattice.
type Cluster struct {
	cfg    ClusterConfig
	Shards []*Lattice
	// pending[k] holds shard k's scheduled-but-possibly-undelivered
	// arrivals, in scheduling order.
	pending [][]*pendingArrival
}

// NewCluster assembles a sharded deployment. Shard k runs with seed
// shard.Seed(Base.Seed, k), ID prefix "shard<k>-", and its share of
// the federation; with DurableRoot set each shard writes its own WAL
// under root/shard<k>, and a shard whose directory already holds state
// resumes from it (Shards[k].Recovery says how). Arrivals the previous
// process had scheduled but not delivered are not durable inputs; the
// caller schedules them again.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("core: cluster needs at least 1 shard, got %d", cfg.Shards)
	}
	switch cfg.Share {
	case "", shard.SharePartition, shard.ShareLease:
	default:
		return nil, fmt.Errorf("core: unknown share mode %q", cfg.Share)
	}
	if cfg.Base.IDPrefix != "" || cfg.Base.Durable != "" || cfg.Base.Faults != nil || cfg.Base.ResourceWrap != nil {
		return nil, fmt.Errorf("core: cluster base config must leave IDPrefix, Durable, Faults and ResourceWrap unset")
	}
	c := &Cluster{
		cfg:     cfg,
		Shards:  make([]*Lattice, cfg.Shards),
		pending: make([][]*pendingArrival, cfg.Shards),
	}
	for k := 0; k < cfg.Shards; k++ {
		scfg := c.shardConfig(k)
		var l *Lattice
		var err error
		if scfg.Durable != "" && wal.HasState(scfg.Durable) {
			l, err = Recover(scfg.Durable, scfg)
		} else {
			l, err = New(scfg)
		}
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
	cfg.IDPrefix = fmt.Sprintf("shard%d-", k)
	if c.cfg.DurableRoot != "" {
		cfg.Durable = filepath.Join(c.cfg.DurableRoot, fmt.Sprintf("shard%d", k))
	}
	if c.cfg.ShardFaults != nil {
		cfg.Faults = c.cfg.ShardFaults(k)
	}
	if c.cfg.Share == shard.ShareLease {
		// Every shard replicates the full federation; the lease gate
		// admits each resource only while this shard holds its lease,
		// so at any instant a resource name serves exactly one shard.
		term := c.cfg.LeaseTerm
		if term <= 0 {
			term = shard.DefaultLeaseTerm
		}
		leases := shard.Leases{Shards: c.cfg.Shards, Term: term}
		index := make(map[string]int, len(c.cfg.Base.Resources))
		for i, rs := range c.cfg.Base.Resources {
			index[rs.Name] = i
		}
		shardID := k
		cfg.ResourceWrap = func(eng *sim.Engine, name string, inner lrm.LRM) lrm.LRM {
			i := index[name]
			return shard.NewGate(inner, eng.Now, func(now sim.Time) bool {
				return leases.Owner(i, now) == shardID
			})
		}
		return cfg
	}
	// Static partition: resource i belongs to shard i mod N. The
	// reference cluster only retrains on shards that own it.
	var mine []ResourceSpec
	hasRef := false
	for i, rs := range c.cfg.Base.Resources {
		if i%c.cfg.Shards == k {
			mine = append(mine, rs)
			if rs.Name == c.cfg.Base.ReferenceCluster {
				hasRef = true
			}
		}
	}
	cfg.Resources = mine
	if !hasRef {
		cfg.ReferenceCluster = ""
	}
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
// its owner shard. Arrivals are tracked cluster-side so RecoverShard
// can re-schedule the ones a crash wiped out of the engine.
func (c *Cluster) ScheduleSubmission(at sim.Time, sub workload.Submission) int {
	k := c.Route(sub.UserEmail, "core")
	pa := &pendingArrival{at: at, sub: sub, origin: shard.Origin(k, "core")}
	c.pending[k] = append(c.pending[k], pa)
	c.scheduleArrival(k, pa)
	return k
}

// scheduleArrival installs one tracked arrival on shard k's engine.
func (c *Cluster) scheduleArrival(k int, pa *pendingArrival) {
	l := c.Shards[k]
	l.Engine.ScheduleAt(pa.at, func() {
		pa.delivered = true
		if _, err := l.submit(gsbl.Request{Sub: pa.sub, Origin: pa.origin}); err != nil {
			l.Service.NoteIngestErr(fmt.Errorf("core: scheduled arrival at %v: %w", pa.at, err))
		}
	})
}

// PendingArrivals counts scheduled submissions that have not yet been
// delivered to their shard — drive the cluster until this reaches
// zero before treating quiet engines as "done", because a scheduled
// workload is idle between arrivals.
func (c *Cluster) PendingArrivals() int {
	n := 0
	for _, shardPending := range c.pending {
		for _, pa := range shardPending {
			if !pa.delivered {
				n++
			}
		}
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

// RecoverShard rebuilds shard k from its own WAL directory — the
// other shards are untouched, which is the point of per-shard
// durability. Scheduled arrivals the crash wiped out of the dead
// engine are re-installed: delivered arrivals were durably recorded
// as enqueues and come back via WAL replay, so only the undelivered
// ones (all at or after the durable watermark) need re-scheduling.
func (c *Cluster) RecoverShard(k int) (*RecoveryReport, error) {
	if k < 0 || k >= len(c.Shards) {
		return nil, fmt.Errorf("core: no shard %d in a %d-shard cluster", k, len(c.Shards))
	}
	if c.cfg.DurableRoot == "" {
		return nil, fmt.Errorf("core: cluster has no durable root; shard %d cannot be recovered", k)
	}
	dir := filepath.Join(c.cfg.DurableRoot, fmt.Sprintf("shard%d", k))
	l, err := Recover(dir, c.shardConfig(k))
	if err != nil {
		return nil, fmt.Errorf("core: recovering shard %d: %w", k, err)
	}
	c.Shards[k] = l
	for _, pa := range c.pending[k] {
		if !pa.delivered {
			c.scheduleArrival(k, pa)
		}
	}
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

// statusJSON merges every shard's /grid/status view.
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
		out[k] = shardStatus{
			Shard:     k,
			Crashed:   l.crashed(),
			Time:      float64(l.Engine.Now()),
			Resources: l.resourceRows(),
			Scheduler: l.Scheduler.Stats(),
		}
		out[k].RetrainErrors, out[k].DurableError = l.errorStatus()
	}
	return map[string]any{"shards": out}
}

// shardFor resolves the shard that owns a request, in precedence
// order: a shard-prefixed ID in the path, the registered token, the
// submitting email, and finally shard 0 for unowned surfaces (the
// index page, the app description, fresh registrations without an
// email — the registration handler itself rejects those).
func (c *Cluster) shardFor(r *http.Request) *Lattice {
	if k, ok := pathShard(r.URL.Path, len(c.Shards)); ok {
		return c.Shards[k]
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

// pathShard extracts the shard index from a shard-prefixed ID path
// segment, e.g. /batch/shard2-batch-000017/status → 2.
func pathShard(path string, n int) (int, bool) {
	for _, prefix := range []string{"/batch/", "/trace/", "/workflow/"} {
		rest, ok := strings.CutPrefix(path, prefix)
		if !ok {
			continue
		}
		var k int
		if _, err := fmt.Sscanf(rest, "shard%d-", &k); err == nil && k >= 0 && k < n {
			return k, true
		}
	}
	return 0, false
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
