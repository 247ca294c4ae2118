// Package cluster simulates a dedicated batch cluster — the grid's
// PBS and SGE resources, which are one machine at two slot counts. A
// node exposes Cores slots that share its memory; a job takes one slot
// on each of max(Nodes, 1) nodes that have a free slot and the memory,
// from a FIFO queue with first-fit backfill. PBS's whole-node
// allocation is Cores: 1; SGE's packing of many serial GARLI
// replicates onto one node is Cores: n.
//
// Clusters are the grid's "stable" resources — jobs run to completion
// without owner interference — and the natural home for large-memory
// and MPI work ("jobs with large memory requirements can be sent to
// clusters with large memory nodes, and tightly coupled jobs to
// clusters with fast interconnects", PAPER.md §1 item 2's matchmaking
// attributes). The one constant of the model is mpiEfficiency: a job
// spanning several nodes runs at 0.85 of their summed speed.
package cluster

import (
	"fmt"

	"lattice/internal/lrm"
	"lattice/internal/obs"
	"lattice/internal/sim"
)

// NodeClass describes a group of identical cluster nodes.
type NodeClass struct {
	Count int
	// Cores is the number of job slots per node: 1 allocates whole
	// nodes (PBS), more packs jobs onto a node (SGE).
	Cores    int
	Speed    float64
	MemoryMB int // total per node, shared by its slots
}

// Config describes a cluster.
type Config struct {
	// Kind is the batch system the cluster presents to the grid, "pbs"
	// or "sge": Info().Kind (which selects the scheduler adapter) and
	// the prefix of every error and failure reason.
	Kind     string
	Name     string
	Nodes    []NodeClass
	Platform lrm.Platform
	Software []string
	// MPI marks the cluster as having a low-latency interconnect.
	MPI bool
}

type node struct {
	cores     int
	speed     float64
	memoryMB  int
	usedCores int
	usedMemMB int
}

type running struct {
	job   *lrm.Job
	nodes []*node
	// speed is the aggregate speed the job runs at.
	speed     float64
	doneEvent sim.EventID
	wallEvent sim.EventID
}

// Cluster is a PBS or SGE LRM.
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
	// picked is dispatch's node-selection scratch.
	picked []*node
}

// SetObs wires the cluster to an observability hub: queue waits and
// executions become per-resource series and journal events.
func (c *Cluster) SetObs(o *obs.Obs) { c.ins = lrm.NewInstruments(o, c.cfg.Name) }

// New builds a cluster.
func New(eng *sim.Engine, cfg Config) (*Cluster, error) {
	if cfg.Kind != "pbs" && cfg.Kind != "sge" {
		return nil, fmt.Errorf("cluster: unknown kind %q", cfg.Kind)
	}
	if cfg.Name == "" {
		return nil, fmt.Errorf("%s: cluster has no name", cfg.Kind)
	}
	c := &Cluster{eng: eng, cfg: cfg, running: make(map[string]*running), queuedAt: make(map[string]sim.Time)}
	for i, nc := range cfg.Nodes {
		if nc.Speed <= 0 || nc.Count <= 0 || nc.Cores <= 0 {
			return nil, fmt.Errorf("%s: node class %d invalid", cfg.Kind, i)
		}
		for k := 0; k < nc.Count; k++ {
			c.nodes = append(c.nodes, &node{cores: nc.Cores, speed: nc.Speed, memoryMB: nc.MemoryMB})
		}
	}
	if len(c.nodes) == 0 {
		return nil, fmt.Errorf("%s: cluster %s has no nodes", cfg.Kind, cfg.Name)
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
	kind := c.cfg.Kind
	if j.NeedsMPI && !c.cfg.MPI {
		return fmt.Errorf("%s: cluster %s has no MPI interconnect", kind, c.cfg.Name)
	}
	if j.Nodes > 1 && !j.NeedsMPI {
		return fmt.Errorf("%s: job %s requests %d nodes but is not an MPI job", kind, j.ID, j.Nodes)
	}
	if j.Nodes > len(c.nodes) {
		return fmt.Errorf("%s: job %s requests %d nodes; cluster %s has %d", kind, j.ID, j.Nodes, c.cfg.Name, len(c.nodes))
	}
	if !lrm.HasPlatform(j.Platforms, c.cfg.Platform) {
		return fmt.Errorf("%s: cluster %s platform %s not in job's set", kind, c.cfg.Name, c.cfg.Platform)
	}
	satisfiable := false
	for _, n := range c.nodes {
		if j.MemoryMB <= n.memoryMB {
			satisfiable = true
			break
		}
	}
	if !satisfiable {
		return fmt.Errorf("%s: no node on %s has %d MB", kind, c.cfg.Name, j.MemoryMB)
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
		c.dispatch()
		return true
	}
	return false
}

// release frees the job's slots and forgets it.
func (c *Cluster) release(r *running) {
	for _, n := range r.nodes {
		n.usedCores--
		n.usedMemMB -= r.job.MemoryMB
	}
	delete(c.running, r.job.ID)
}

// mpiEfficiency is the parallel efficiency of multi-node MPI jobs
// (communication overhead eats part of the aggregate speed).
const mpiEfficiency = 0.85

// dispatch starts queued jobs on free slots: FIFO order with first-fit
// backfill (a job later in the queue may start if the head does not
// fit enough nodes with a free slot and the memory).
func (c *Cluster) dispatch() {
	for qi := 0; qi < len(c.queue); {
		j := c.queue[qi]
		want := max(j.Nodes, 1)
		picked := c.picked[:0]
		for _, n := range c.nodes {
			if n.usedCores < n.cores && n.usedMemMB+j.MemoryMB <= n.memoryMB {
				picked = append(picked, n)
				if len(picked) == want {
					break
				}
			}
		}
		c.picked = picked
		if len(picked) < want {
			qi++
			continue
		}
		c.queue = append(c.queue[:qi], c.queue[qi+1:]...)
		c.start(j, append([]*node(nil), picked...))
	}
}

func (c *Cluster) start(j *lrm.Job, nodes []*node) {
	r := &running{job: j, nodes: nodes}
	for _, n := range nodes {
		n.usedCores++
		n.usedMemMB += j.MemoryMB
		r.speed += n.speed
	}
	if len(nodes) > 1 {
		r.speed *= mpiEfficiency
	}
	dur := j.RuntimeOn(r.speed)
	c.running[j.ID] = r
	c.ins.JobStarted(j, c.eng.Now().Sub(c.queuedAt[j.ID]))
	delete(c.queuedAt, j.ID)
	r.doneEvent = c.eng.Schedule(dur, func() {
		c.eng.Cancel(r.wallEvent)
		c.release(r)
		c.stats.Completed++
		c.stats.CPUSeconds += dur.Seconds() * r.speed
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
			c.stats.Failed++
			c.stats.WastedCPU += j.WallLimit.Seconds() * r.speed
			c.ins.JobFailed(j)
			if j.OnFail != nil {
				j.OnFail(c.eng.Now(), c.cfg.Kind+": wall clock limit exceeded")
			}
			c.dispatch()
		})
	}
}

// Info implements lrm.LRM.
func (c *Cluster) Info() lrm.Info {
	info := lrm.Info{
		Name:      c.cfg.Name,
		Kind:      c.cfg.Kind,
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
