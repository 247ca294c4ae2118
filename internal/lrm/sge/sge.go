// Package sge simulates a Sun Grid Engine cluster: slot-based
// scheduling where each node exposes one slot per core and node memory
// is shared among the jobs running on it. Like PBS clusters, SGE
// resources are stable (no owner preemption); unlike PBS's whole-node
// allocation, many single-core jobs pack onto one node, which is how
// the paper's SGE resources absorb large batches of serial GARLI
// replicates.
package sge

import (
	"fmt"

	"lattice/internal/lrm"
	"lattice/internal/obs"
	"lattice/internal/sim"
)

// NodeClass describes a group of identical nodes.
type NodeClass struct {
	Count    int
	Cores    int
	Speed    float64
	MemoryMB int // total per node, shared by its slots
}

// Config describes an SGE cluster.
type Config struct {
	Name     string
	Nodes    []NodeClass
	Platform lrm.Platform
	Software []string
	MPI      bool
}

type node struct {
	cores     int
	speed     float64
	memoryMB  int
	usedCores int
	usedMemMB int
}

type running struct {
	job       *lrm.Job
	node      *node
	doneEvent sim.EventID
	wallEvent sim.EventID
}

// Cluster is an SGE LRM.
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
		return nil, fmt.Errorf("sge: cluster has no name")
	}
	c := &Cluster{eng: eng, cfg: cfg, running: make(map[string]*running), queuedAt: make(map[string]sim.Time)}
	for i, nc := range cfg.Nodes {
		if nc.Speed <= 0 || nc.Count <= 0 || nc.Cores <= 0 {
			return nil, fmt.Errorf("sge: node class %d invalid", i)
		}
		for k := 0; k < nc.Count; k++ {
			c.nodes = append(c.nodes, &node{cores: nc.Cores, speed: nc.Speed, memoryMB: nc.MemoryMB})
		}
	}
	if len(c.nodes) == 0 {
		return nil, fmt.Errorf("sge: cluster %s has no nodes", cfg.Name)
	}
	return c, nil
}

// Name implements lrm.LRM.
func (c *Cluster) Name() string { return c.cfg.Name }

// Submit implements lrm.LRM.
func (c *Cluster) Submit(j *lrm.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if j.NeedsMPI && !c.cfg.MPI {
		return fmt.Errorf("sge: cluster %s has no MPI interconnect", c.cfg.Name)
	}
	if !lrm.HasPlatform(j.Platforms, c.cfg.Platform) {
		return fmt.Errorf("sge: cluster %s platform %s not in job's set", c.cfg.Name, c.cfg.Platform)
	}
	satisfiable := false
	for _, n := range c.nodes {
		if j.MemoryMB <= n.memoryMB {
			satisfiable = true
			break
		}
	}
	if !satisfiable {
		return fmt.Errorf("sge: no node on %s has %d MB", c.cfg.Name, j.MemoryMB)
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
		c.release(r)
		delete(c.running, jobID)
		c.dispatch()
		return true
	}
	return false
}

func (c *Cluster) release(r *running) {
	r.node.usedCores--
	r.node.usedMemMB -= r.job.MemoryMB
}

// dispatch packs queued jobs onto free slots, FIFO with first-fit
// (slot and shared-memory constrained).
func (c *Cluster) dispatch() {
	for qi := 0; qi < len(c.queue); {
		j := c.queue[qi]
		var target *node
		for _, n := range c.nodes {
			if n.usedCores < n.cores && n.usedMemMB+j.MemoryMB <= n.memoryMB {
				target = n
				break
			}
		}
		if target == nil {
			qi++
			continue
		}
		c.queue = append(c.queue[:qi], c.queue[qi+1:]...)
		c.start(j, target)
	}
}

func (c *Cluster) start(j *lrm.Job, n *node) {
	n.usedCores++
	n.usedMemMB += j.MemoryMB
	dur := j.RuntimeOn(n.speed)
	r := &running{job: j, node: n}
	c.running[j.ID] = r
	c.ins.JobStarted(j, c.eng.Now().Sub(c.queuedAt[j.ID]))
	delete(c.queuedAt, j.ID)
	r.doneEvent = c.eng.Schedule(dur, func() {
		c.eng.Cancel(r.wallEvent)
		c.release(r)
		delete(c.running, j.ID)
		c.stats.Completed++
		c.stats.CPUSeconds += dur.Seconds() * n.speed
		c.ins.JobCompleted(j)
		if j.OnComplete != nil {
			j.OnComplete(c.eng.Now())
		}
		c.dispatch()
	})
	if j.WallLimit > 0 && j.WallLimit < dur {
		r.wallEvent = c.eng.Schedule(j.WallLimit, func() {
			c.eng.Cancel(r.doneEvent)
			c.release(r)
			delete(c.running, j.ID)
			c.stats.Failed++
			c.stats.WastedCPU += j.WallLimit.Seconds() * n.speed
			c.ins.JobFailed(j)
			if j.OnFail != nil {
				j.OnFail(c.eng.Now(), "sge: wall clock limit exceeded")
			}
			c.dispatch()
		})
	}
}

// Info implements lrm.LRM.
func (c *Cluster) Info() lrm.Info {
	info := lrm.Info{
		Name:      c.cfg.Name,
		Kind:      "sge",
		Platforms: []lrm.Platform{c.cfg.Platform},
		Software:  c.cfg.Software,
		MPI:       c.cfg.MPI,
		Stable:    true,
	}
	for _, n := range c.nodes {
		info.TotalCPUs += n.cores
		info.FreeCPUs += n.cores - n.usedCores
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
