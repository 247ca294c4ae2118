// Package pbs simulates a dedicated cluster managed by the Portable
// Batch System: whole-node allocation from a FIFO queue with first-fit
// backfill. Clusters are the grid's "stable" resources — jobs run to
// completion without owner interference — and the natural home for
// large-memory and MPI work ("jobs with large memory requirements can
// be sent to clusters with large memory nodes, and tightly coupled
// jobs to clusters with fast interconnects").
package pbs

import (
	"fmt"

	"lattice/internal/lrm"
	"lattice/internal/obs"
	"lattice/internal/sim"
)

// NodeClass describes a group of identical cluster nodes.
type NodeClass struct {
	Count    int
	Speed    float64
	MemoryMB int
}

// Config describes a PBS cluster.
type Config struct {
	Name     string
	Nodes    []NodeClass
	Platform lrm.Platform
	Software []string
	// MPI marks the cluster as having a low-latency interconnect.
	MPI bool
	// DefaultWallLimit is the queue's maximum walltime (0 = none);
	// local policy applied to every job without its own limit.
	DefaultWallLimit sim.Duration
}

type node struct {
	speed    float64
	memoryMB int
	busy     bool
}

type running struct {
	job       *lrm.Job
	nodes     []*node
	doneEvent sim.EventID
	wallEvent sim.EventID
	startedAt sim.Time
}

// Cluster is a PBS LRM.
type Cluster struct {
	eng     *sim.Engine
	cfg     Config
	nodes   []*node
	queue   []*lrm.Job
	running map[string]*running
	stats   lrm.Stats
	ins     *lrm.Instruments
	// queuedAt records local submission times for queue-wait metrics.
	queuedAt map[string]sim.Time
}

// SetObs wires the cluster to an observability hub: queue waits and
// executions become per-resource series and journal events.
func (c *Cluster) SetObs(o *obs.Obs) { c.ins = lrm.NewInstruments(o, c.cfg.Name) }

// New builds a cluster.
func New(eng *sim.Engine, cfg Config) (*Cluster, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("pbs: cluster has no name")
	}
	c := &Cluster{eng: eng, cfg: cfg, running: make(map[string]*running), queuedAt: make(map[string]sim.Time)}
	for i, nc := range cfg.Nodes {
		if nc.Speed <= 0 || nc.Count <= 0 {
			return nil, fmt.Errorf("pbs: node class %d invalid", i)
		}
		for k := 0; k < nc.Count; k++ {
			c.nodes = append(c.nodes, &node{speed: nc.Speed, memoryMB: nc.MemoryMB})
		}
	}
	if len(c.nodes) == 0 {
		return nil, fmt.Errorf("pbs: cluster %s has no nodes", cfg.Name)
	}
	return c, nil
}

// Name implements lrm.LRM.
func (c *Cluster) Name() string { return c.cfg.Name }

// Submit implements lrm.LRM. Jobs whose requirements no node can ever
// satisfy are rejected immediately (qsub-style validation).
func (c *Cluster) Submit(j *lrm.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if j.NeedsMPI && !c.cfg.MPI {
		return fmt.Errorf("pbs: cluster %s has no MPI interconnect", c.cfg.Name)
	}
	if j.Nodes > 1 && !j.NeedsMPI {
		return fmt.Errorf("pbs: job %s requests %d nodes but is not an MPI job", j.ID, j.Nodes)
	}
	if j.Nodes > len(c.nodes) {
		return fmt.Errorf("pbs: job %s requests %d nodes; cluster %s has %d", j.ID, j.Nodes, c.cfg.Name, len(c.nodes))
	}
	if !lrm.HasPlatform(j.Platforms, c.cfg.Platform) {
		return fmt.Errorf("pbs: cluster %s platform %s not in job's set", c.cfg.Name, c.cfg.Platform)
	}
	satisfiable := false
	for _, n := range c.nodes {
		if j.MemoryMB <= n.memoryMB {
			satisfiable = true
			break
		}
	}
	if !satisfiable {
		return fmt.Errorf("pbs: no node on %s has %d MB", c.cfg.Name, j.MemoryMB)
	}
	c.stats.TotalQueued++
	c.queue = append(c.queue, j)
	c.queuedAt[j.ID] = c.eng.Now()
	if len(c.queue) > c.stats.MaxQueueSeen {
		c.stats.MaxQueueSeen = len(c.queue)
	}
	c.dispatch()
	return nil
}

// Cancel implements lrm.LRM.
func (c *Cluster) Cancel(jobID string) bool {
	for i, j := range c.queue {
		if j.ID == jobID {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			delete(c.queuedAt, jobID)
			return true
		}
	}
	if r, ok := c.running[jobID]; ok {
		c.eng.Cancel(r.doneEvent)
		c.eng.Cancel(r.wallEvent)
		for _, n := range r.nodes {
			n.busy = false
		}
		delete(c.running, jobID)
		c.dispatch()
		return true
	}
	return false
}

// mpiEfficiency is the parallel efficiency of multi-node MPI jobs
// (communication overhead eats part of the aggregate speed).
const mpiEfficiency = 0.85

// dispatch starts queued jobs on free nodes: FIFO order with first-fit
// backfill (a job later in the queue may start if the head does not
// fit enough free nodes).
func (c *Cluster) dispatch() {
	for qi := 0; qi < len(c.queue); {
		j := c.queue[qi]
		want := j.Nodes
		if want < 1 {
			want = 1
		}
		var targets []*node
		for _, n := range c.nodes {
			if !n.busy && j.MemoryMB <= n.memoryMB {
				targets = append(targets, n)
				if len(targets) == want {
					break
				}
			}
		}
		if len(targets) < want {
			qi++
			continue
		}
		c.queue = append(c.queue[:qi], c.queue[qi+1:]...)
		c.start(j, targets)
	}
}

func (c *Cluster) start(j *lrm.Job, nodes []*node) {
	var aggregate float64
	for _, n := range nodes {
		n.busy = true
		aggregate += n.speed
	}
	if len(nodes) > 1 {
		aggregate *= mpiEfficiency
	}
	dur := j.RuntimeOn(aggregate)
	r := &running{job: j, nodes: nodes, startedAt: c.eng.Now()}
	c.running[j.ID] = r
	c.ins.JobStarted(j, c.eng.Now().Sub(c.queuedAt[j.ID]))
	delete(c.queuedAt, j.ID)
	release := func() {
		for _, n := range nodes {
			n.busy = false
		}
	}
	r.doneEvent = c.eng.Schedule(dur, func() {
		release()
		c.eng.Cancel(r.wallEvent)
		delete(c.running, j.ID)
		c.stats.Completed++
		c.stats.CPUSeconds += dur.Seconds() * aggregate
		c.ins.JobCompleted(j)
		if j.OnComplete != nil {
			j.OnComplete(c.eng.Now())
		}
		c.dispatch()
	})
	limit := j.WallLimit
	if limit == 0 {
		limit = c.cfg.DefaultWallLimit
	}
	if limit > 0 && limit < dur {
		r.wallEvent = c.eng.Schedule(limit, func() {
			release()
			c.eng.Cancel(r.doneEvent)
			delete(c.running, j.ID)
			c.stats.Failed++
			c.stats.WastedCPU += limit.Seconds() * aggregate
			c.ins.JobFailed(j)
			if j.OnFail != nil {
				j.OnFail(c.eng.Now(), "pbs: wall clock limit exceeded")
			}
			c.dispatch()
		})
	}
}

// Info implements lrm.LRM.
func (c *Cluster) Info() lrm.Info {
	info := lrm.Info{
		Name:      c.cfg.Name,
		Kind:      "pbs",
		Platforms: []lrm.Platform{c.cfg.Platform},
		Software:  c.cfg.Software,
		MPI:       c.cfg.MPI,
		Stable:    true,
	}
	for _, n := range c.nodes {
		info.TotalCPUs++
		if !n.busy {
			info.FreeCPUs++
		}
		if n.memoryMB > info.NodeMemoryMB {
			info.NodeMemoryMB = n.memoryMB
		}
	}
	info.QueuedJobs = len(c.queue)
	info.RunningJobs = len(c.running)
	return info
}

// Stats implements lrm.LRM.
func (c *Cluster) Stats() lrm.Stats { return c.stats }
