// Package cluster simulates the grid's batch resources — PBS and SGE
// clusters and Condor pools, which are one machine room at different
// slot counts and owner processes. A node exposes Cores slots that
// share its memory; a job — one serial GARLI replicate — takes one slot
// on the first node that has a free slot and the memory, from a FIFO
// queue with first-fit backfill. PBS's whole-node allocation is
// Cores: 1; SGE's packing of many replicates onto one node is Cores: n.
//
// A Condor pool is a cluster of institutional workstations scavenged
// for cycles while their owners are away ("Condor — a hunter of idle
// workstations"): a node with an owner alternates exponential
// owner-present and owner-away periods, takes jobs only while the owner
// is away, and preempts them the moment the owner returns. Pools run
// the vanilla universe, so a preempted job loses its progress and
// requeues; the paper gates long jobs off such pools by estimate
// instead of checkpoint-cycling them (experiment E14 models the
// declined alternative by hand).
//
// A cluster with no owner is "stable" — jobs run to completion — and
// the natural home for large-memory work ("jobs with large memory
// requirements can be sent to clusters with large memory nodes",
// PAPER.md §1 item 2); one with owners is the canonical unstable
// resource ("unstable resources only take jobs estimated under n = 10
// hours"). A job runs at its node's speed until it completes, is
// preempted or is cancelled; no local policy limits its run time.
package cluster

import (
	"fmt"
	"slices"

	"lattice/internal/lrm"
	"lattice/internal/obs"
	"lattice/internal/sim"
)

// NodeClass describes a group of identical nodes.
type NodeClass struct {
	Count int
	// Cores is the number of job slots per node: 1 allocates whole
	// nodes (PBS, a Condor workstation), more packs jobs onto a node
	// (SGE).
	Cores    int
	Speed    float64
	MemoryMB int // total per node, shared by its slots
	// MeanOwnerAway and MeanOwnerBusy, set together, give every node of
	// the class an owner: the mean lengths of the exponential periods in
	// which the node is free for grid jobs and in which its owner uses
	// it. Zero for a dedicated node.
	MeanOwnerAway sim.Duration
	MeanOwnerBusy sim.Duration
}

// Config describes a cluster.
type Config struct {
	// Kind is the batch system the cluster presents to the grid, "pbs",
	// "sge" or "condor": Info().Kind and the prefix of every error and
	// failure reason.
	Kind     string
	Name     string
	Nodes    []NodeClass
	Platform lrm.Platform
	// MaxRequeues bounds how many times one job may be preempted by an
	// owner before the cluster fails it (0 = unlimited; real Condor
	// requeues indefinitely, which for long jobs on busy pools means
	// never finishing).
	MaxRequeues int
}

type node struct {
	// c is the node's cluster, which its owner's events act on.
	c         *Cluster
	cores     int
	speed     float64
	memoryMB  int
	usedMemMB int
	// jobs hold a slot here, in start order.
	jobs []*running
	// away and busy are the owner's mean periods (zero: no owner);
	// ownerPresent keeps the node from taking jobs.
	away, busy   sim.Duration
	ownerPresent bool
}

// running is the cluster's record of one submitted job, taken at Submit
// and kept until the job leaves the cluster: the queue's entry while it
// waits, the event that completes it while it runs. A preempted job
// requeues the same record. A record that dies goes back to its
// cluster's free list, zeroed, for the next Submit.
type running struct {
	c   *Cluster
	job *lrm.Job
	// node holds the job's slot while it runs.
	node *node
	dur  sim.Duration
	// since is when the job's current wait (submission or last
	// preemption) or run began.
	since     sim.Time
	doneEvent sim.EventID
	// requeues counts the job's owner preemptions so far.
	requeues int
}

// Cluster is a PBS, SGE or Condor LRM.
type Cluster struct {
	eng *sim.Engine
	// rng draws the owners' periods.
	rng   *sim.RNG
	cfg   Config
	nodes []*node
	queue []*running
	// started counts the jobs holding slots.
	started int
	stats   lrm.Stats
	ins     *lrm.Instruments
	// info is what Info reports that never changes, built once so an
	// MDS poll allocates nothing.
	info lrm.Info
	// free holds the records of jobs that left, zeroed, for Submit to
	// reuse. It needs no cap: it never outgrows the most records the
	// cluster held at once, which the meta-scheduler's backlog cap
	// (maxBacklogFactor × CPUs) bounds.
	free []*running
}

// New builds a cluster. rng draws the owners' periods and may be nil
// when no node has an owner; o, which may be nil, receives queue waits,
// executions and preemptions as per-resource series and journal
// events. Owner nodes start owner-present, and their first departures
// are drawn here in node order.
func New(eng *sim.Engine, rng *sim.RNG, o *obs.Obs, cfg Config) (*Cluster, error) {
	switch cfg.Kind {
	case "pbs", "sge", "condor":
	default:
		return nil, fmt.Errorf("cluster: unknown kind %q", cfg.Kind)
	}
	if cfg.Name == "" {
		return nil, fmt.Errorf("%s: cluster has no name", cfg.Kind)
	}
	c := &Cluster{
		eng: eng, rng: rng, cfg: cfg, ins: lrm.NewInstruments(o, cfg.Name),
		info: lrm.Info{Name: cfg.Name, Kind: cfg.Kind, Platforms: []lrm.Platform{cfg.Platform}, Stable: true},
	}
	for i, nc := range cfg.Nodes {
		owned := nc.MeanOwnerBusy > 0
		if nc.Speed <= 0 || nc.Count <= 0 || nc.Cores <= 0 || owned != (nc.MeanOwnerAway > 0) || (owned && rng == nil) {
			return nil, fmt.Errorf("%s: node class %d invalid", cfg.Kind, i)
		}
		for k := 0; k < nc.Count; k++ {
			c.nodes = append(c.nodes, &node{c: c, cores: nc.Cores, speed: nc.Speed, memoryMB: nc.MemoryMB,
				away: nc.MeanOwnerAway, busy: nc.MeanOwnerBusy, ownerPresent: owned})
		}
		c.info.TotalCPUs += nc.Count * nc.Cores
		c.info.NodeMemoryMB = max(c.info.NodeMemoryMB, nc.MemoryMB)
		c.info.Stable = c.info.Stable && !owned
	}
	if len(c.nodes) == 0 {
		return nil, fmt.Errorf("%s: cluster %s has no nodes", cfg.Kind, cfg.Name)
	}
	for _, n := range c.nodes {
		if n.busy > 0 {
			c.ownerLeaves(n)
		}
	}
	return c, nil
}

// Name implements lrm.LRM.
func (c *Cluster) Name() string { return c.cfg.Name }

// ownerLeaves ends n's current owner-present period after a random
// busy time: the node takes jobs until the owner returns.
func (c *Cluster) ownerLeaves(n *node) {
	c.eng.After(c.rng.ExpDuration(n.busy), (*ownerAway)(n))
}

// ownerAway is the event of a node's owner leaving; (*ownerBack)(n) is
// the owner's return.
type ownerAway node

func (a *ownerAway) Fire() {
	n := (*node)(a)
	n.ownerPresent = false
	n.c.eng.After(n.c.rng.ExpDuration(n.away), (*ownerBack)(n))
	n.c.dispatch()
}

type ownerBack node

func (b *ownerBack) Fire() {
	n := (*node)(b)
	n.ownerPresent = true
	for len(n.jobs) > 0 {
		n.c.preempt(n.jobs[0])
	}
	n.c.ownerLeaves(n)
}

// preempt evicts r because an owner came back. The vanilla universe
// loses its progress: the job goes back to the tail of the queue with
// a fresh queue-wait clock, or fails once preempted MaxRequeues times.
func (c *Cluster) preempt(r *running) {
	j := r.job
	c.eng.Cancel(r.doneEvent)
	r.requeues++
	c.release(r)
	c.stats.Preemptions++
	c.ins.JobPreempted(j, "owner returned")
	c.stats.WastedCPU += c.eng.Now().Sub(r.since).Seconds() * r.node.speed
	if c.cfg.MaxRequeues > 0 && r.requeues > c.cfg.MaxRequeues {
		c.recycle(r)
		c.stats.Failed++
		c.ins.JobFailed(j)
		if j.Owner != nil {
			j.Owner.Fail(j, c.eng.Now(), c.cfg.Kind+": requeue limit exceeded")
		}
		return
	}
	r.since = c.eng.Now()
	c.queue = append(c.queue, r)
	c.dispatch()
}

// Submit implements lrm.LRM. A job no node has the memory for is
// rejected immediately (qsub-style validation).
func (c *Cluster) Submit(j *lrm.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if j.MemoryMB > c.info.NodeMemoryMB {
		return fmt.Errorf("%s: no node on %s has %d MB", c.cfg.Kind, c.cfg.Name, j.MemoryMB)
	}
	c.stats.TotalQueued++
	var r *running
	if n := len(c.free); n > 0 {
		r, c.free = c.free[n-1], c.free[:n-1]
	} else {
		r = new(running)
	}
	r.c, r.job, r.since = c, j, c.eng.Now()
	c.queue = append(c.queue, r)
	if len(c.queue) > c.stats.MaxQueueSeen {
		c.stats.MaxQueueSeen = len(c.queue)
	}
	c.dispatch()
	return nil
}

// Cancel implements lrm.LRM. It looks for the job in the queue, then on
// the nodes: it runs only when a resource is presumed dead or taken
// down, so it scans rather than keep an index by ID.
func (c *Cluster) Cancel(jobID string) bool {
	if i := slices.IndexFunc(c.queue, func(r *running) bool { return r.job.ID == jobID }); i >= 0 {
		r := c.queue[i]
		c.queue = slices.Delete(c.queue, i, i+1)
		c.recycle(r)
		return true
	}
	for _, n := range c.nodes {
		for _, r := range n.jobs {
			if r.job.ID == jobID {
				c.eng.Cancel(r.doneEvent)
				c.release(r)
				c.recycle(r)
				c.dispatch()
				return true
			}
		}
	}
	return false
}

// release frees the job's slot.
func (c *Cluster) release(r *running) {
	n := r.node
	i := slices.Index(n.jobs, r)
	n.jobs = slices.Delete(n.jobs, i, i+1)
	n.usedMemMB -= r.job.MemoryMB
	c.started--
}

// recycle zeroes the record of a job that left the cluster and puts it
// on the free list. Callers recycle after their last read of r and
// before telling the job's owner, whose callback may re-enter Submit
// and take r for another job; a stale use of a free record panics on
// its nil cluster instead of acting for that job.
func (c *Cluster) recycle(r *running) {
	*r = running{}
	c.free = append(c.free, r)
}

// dispatch starts queued jobs on free slots: FIFO order with first-fit
// backfill (a job later in the queue may start if the head fits no
// owner-free node with a free slot and the memory).
func (c *Cluster) dispatch() {
	for qi := 0; qi < len(c.queue); {
		r := c.queue[qi]
		i := slices.IndexFunc(c.nodes, func(n *node) bool {
			return !n.ownerPresent && len(n.jobs) < n.cores && n.usedMemMB+r.job.MemoryMB <= n.memoryMB
		})
		if i < 0 {
			qi++
			continue
		}
		c.queue = append(c.queue[:qi], c.queue[qi+1:]...)
		c.start(r, c.nodes[i])
	}
}

// start runs r in a slot of n.
func (c *Cluster) start(r *running, n *node) {
	j := r.job
	r.node = n
	n.jobs = append(n.jobs, r)
	n.usedMemMB += j.MemoryMB
	r.dur = j.RuntimeOn(n.speed)
	c.started++
	c.ins.JobStarted(j, c.eng.Now().Sub(r.since))
	r.since = c.eng.Now()
	r.doneEvent = c.eng.After(r.dur, r)
}

// Fire completes the job.
func (r *running) Fire() {
	c, j := r.c, r.job
	c.release(r)
	c.stats.Completed++
	c.stats.CPUSeconds += r.dur.Seconds() * r.node.speed
	c.recycle(r)
	c.ins.JobCompleted(j)
	if j.Owner != nil {
		j.Owner.Complete(j, c.eng.Now())
	}
	c.dispatch()
}

// Info implements lrm.LRM. A slot is free while its node's owner is
// away; Stable holds exactly when no node has an owner.
func (c *Cluster) Info() lrm.Info {
	info := c.info
	for _, n := range c.nodes {
		if !n.ownerPresent {
			info.FreeCPUs += n.cores - len(n.jobs)
		}
	}
	info.QueuedJobs = len(c.queue)
	info.RunningJobs = c.started
	return info
}

// Stats implements lrm.LRM.
func (c *Cluster) Stats() lrm.Stats { return c.stats }
