package cluster

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"lattice/internal/lrm"
	"lattice/internal/sim"
)

// The three clusters the table runs on.
var (
	// hpc is a PBS cluster: four fast whole nodes, two large-memory ones.
	hpc = Config{
		Kind: "pbs", Name: "hpc", Platform: lrm.LinuxX86, MPI: true,
		Nodes: []NodeClass{
			{Count: 4, Cores: 1, Speed: 2.0, MemoryMB: 4096},
			{Count: 2, Cores: 1, Speed: 1.5, MemoryMB: 32768},
		},
	}
	// serial is a one-node PBS cluster without an interconnect.
	serial = Config{
		Kind: "pbs", Name: "serial", Platform: lrm.LinuxX86,
		Nodes: []NodeClass{{Count: 1, Cores: 1, Speed: 1, MemoryMB: 1024}},
	}
	// slots is an SGE cluster: 2 nodes × 8 slots sharing 16 GB a node.
	slots = Config{
		Kind: "sge", Name: "sge", Platform: lrm.LinuxX86,
		Nodes: []NodeClass{{Count: 2, Cores: 8, Speed: 1.5, MemoryMB: 16384}},
	}
	// mpiSlots is an SGE cluster with an interconnect: 6 nodes × 4 slots.
	mpiSlots = Config{
		Kind: "sge", Name: "mpi-sge", Platform: lrm.LinuxX86, MPI: true,
		Nodes: []NodeClass{{Count: 6, Cores: 4, Speed: 1.5, MemoryMB: 16384}},
	}
)

// sub is one submission of a table row: n copies (default 1) of a job
// of ref reference-seconds, named id (id0, id1, … when n > 1).
type sub struct {
	id   string
	n    int
	ref  float64
	mem  int // default 512
	job  func(*lrm.Job)
	fail string // non-empty: Submit must fail with an error containing it
}

// probe is the Info a row expects at virtual time at.
type probe struct {
	at                          sim.Duration
	total, free, running, queue int
}

type cancel struct {
	id   string
	want bool
}

func mpi(nodes int) func(*lrm.Job) {
	return func(j *lrm.Job) { j.NeedsMPI, j.Nodes = true, nodes }
}

// TestCluster runs every surviving case of the PBS and SGE suites, and
// the multi-node rule SGE used to lack, against the one constructor:
// submissions and cancels at time zero, then exact completion times,
// failure reasons, an Info probe and the completed count.
func TestCluster(t *testing.T) {
	for _, row := range []struct {
		name      string
		cfg       Config
		subs      []sub
		cancels   []cancel
		probe     *probe
		done      map[string]float64 // job → completion time
		failed    map[string]string  // job → "time reason"
		completed int
		makespan  float64 // 0: not checked
	}{
		{name: "pbs-fifo-completion", cfg: hpc,
			subs: []sub{{id: "j", n: 30, ref: 3600}}, completed: 30},
		{name: "pbs-makespan", cfg: hpc,
			// Six at a time: 3600 s on the fast nodes, 4800 s on the others.
			subs: []sub{{id: "j", n: 12, ref: 7200}}, completed: 12, makespan: 9600},
		{name: "pbs-large-memory-routing", cfg: hpc,
			subs: []sub{
				{id: "big", ref: 600, mem: 16384},
				{id: "huge", ref: 600, mem: 65536, fail: "pbs: no node on hpc has 65536 MB"},
			},
			done: map[string]float64{"big": 400}, completed: 1},
		{name: "pbs-backfill", cfg: hpc,
			// Both large-memory nodes are held for 50 h; the large-memory
			// head of the queue waits, the small job behind it does not.
			subs: []sub{
				{id: "block", n: 2, ref: 50 * 3600, mem: 16384},
				{id: "head", ref: 600, mem: 16384},
				{id: "small", ref: 600},
			},
			done: map[string]float64{"small": 300, "head": 120400}, completed: 4},
		{name: "pbs-mpi-policy", cfg: serial,
			subs: []sub{{id: "mpi", ref: 60, job: mpi(0), fail: "pbs: cluster serial has no MPI interconnect"}}},
		{name: "pbs-platform-policy", cfg: hpc,
			subs: []sub{{id: "win", ref: 60, fail: "pbs: cluster hpc platform linux/x86_64 not in job's set",
				job: func(j *lrm.Job) { j.Platforms = []lrm.Platform{lrm.WindowsX86} }}}},
		{name: "pbs-wall-limit", cfg: serial,
			subs: []sub{{id: "long", ref: 4 * 3600, job: func(j *lrm.Job) { j.WallLimit = sim.Hour }}},
			// The reason reaches the journal: byte-for-byte.
			failed: map[string]string{"long": "3600 pbs: wall clock limit exceeded"}},
		{name: "pbs-cancel-queued-and-running", cfg: hpc,
			subs:      []sub{{id: "r", n: 6, ref: 3600}, {id: "q", ref: 3600}},
			cancels:   []cancel{{"q", true}, {"r0", true}, {"r0", false}},
			completed: 5},
		{name: "pbs-info", cfg: hpc,
			subs:  []sub{{id: "one", ref: 3600}},
			probe: &probe{at: sim.Minute, total: 6, free: 5, running: 1}, completed: 1},
		{name: "pbs-mpi-multi-node", cfg: hpc,
			// 8 reference-hours across 4 speed-2.0 nodes at 85 % efficiency.
			subs:  []sub{{id: "mpi4", ref: 8 * 3600, job: mpi(4)}},
			probe: &probe{at: 10 * sim.Minute, total: 6, free: 2, running: 1},
			done:  map[string]float64{"mpi4": 8 * 3600 / (4 * 2.0 * 0.85)}, completed: 1},
		{name: "pbs-mpi-validation", cfg: hpc,
			subs: []sub{
				{id: "wide", ref: 60, job: mpi(100), fail: "pbs: job wide requests 100 nodes; cluster hpc has 6"},
				{id: "serialmulti", ref: 60, job: func(j *lrm.Job) { j.Nodes = 3 },
					fail: "pbs: job serialmulti requests 3 nodes but is not an MPI job"},
			}},
		{name: "pbs-mpi-waits-for-enough-nodes", cfg: hpc,
			// Five serial jobs leave one node, which the late job backfills
			// at once. The 4-node job starts the moment a fourth node frees:
			// at 3600 s, inside the third fast node's completion, on three
			// fast nodes and the large-memory one the late job gave back.
			subs: []sub{
				{id: "s", n: 5, ref: 2 * 3600},
				{id: "mpi", ref: 3600, job: mpi(4)},
				{id: "late", ref: 600},
			},
			done: map[string]float64{"late": 400, "mpi": 3600 + 3600/((2.0+2.0+2.0+1.5)*0.85)}, completed: 7},

		{name: "sge-slot-packing", cfg: slots,
			// 16 equal jobs on 16 slots run together: 3600 / 1.5.
			subs: []sub{{id: "j", n: 16, ref: 3600}},
			done: map[string]float64{"j0": 2400, "j15": 2400}, completed: 16, makespan: 2400},
		{name: "sge-shared-memory", cfg: slots,
			// Two 6 GB jobs fill a 16 GB node whatever its free slots: the
			// fifth job waits for memory, not for a core.
			subs:  []sub{{id: "m", n: 5, ref: 3600, mem: 6144}},
			probe: &probe{at: sim.Minute, total: 16, free: 12, running: 4, queue: 1},
			done:  map[string]float64{"m4": 4800}, completed: 5},
		{name: "sge-rejects-oversized-and-wrong-platform", cfg: slots,
			subs: []sub{
				{id: "big", ref: 60, mem: 32768, fail: "sge: no node on sge has 32768 MB"},
				{id: "mac", ref: 60, fail: "sge: cluster sge platform linux/x86_64 not in job's set",
					job: func(j *lrm.Job) { j.Platforms = []lrm.Platform{lrm.DarwinX86} }},
				{id: "mpi", ref: 60, job: mpi(0), fail: "sge: cluster sge has no MPI interconnect"},
			}},
		{name: "sge-queue-drains-in-order", cfg: slots,
			subs:      []sub{{id: "j", n: 40, ref: 1800}},
			done:      map[string]float64{"j0": 1200, "j15": 1200, "j16": 2400, "j31": 2400, "j32": 3600, "j39": 3600},
			completed: 40},
		{name: "sge-cancel", cfg: slots,
			subs:      []sub{{id: "r", n: 16, ref: 3600}, {id: "queued", ref: 3600}},
			cancels:   []cancel{{"queued", true}, {"r3", true}},
			completed: 15},
		{name: "sge-wall-limit", cfg: slots,
			subs:   []sub{{id: "w", ref: 7200, job: func(j *lrm.Job) { j.WallLimit = sim.Hour }}},
			failed: map[string]string{"w": "3600 sge: wall clock limit exceeded"}},
		{name: "sge-info-counts-slots", cfg: slots,
			subs:  []sub{{id: "x", ref: 3600}},
			probe: &probe{at: sim.Minute, total: 16, free: 15, running: 1}, completed: 1},

		{name: "sge-mpi-multi-node", cfg: mpiSlots,
			// One slot on each of four nodes, 0.85 × their summed speed —
			// SGE used to run this on one slot at one node's speed.
			subs:  []sub{{id: "mpi4", ref: 8 * 3600, job: mpi(4)}, {id: "x", ref: 3600}},
			probe: &probe{at: sim.Minute, total: 24, free: 19, running: 2},
			done:  map[string]float64{"mpi4": 8 * 3600 / (4 * 1.5 * 0.85), "x": 2400}, completed: 2},
		{name: "sge-mpi-validation", cfg: mpiSlots,
			subs: []sub{
				{id: "wide", ref: 60, job: mpi(7), fail: "sge: job wide requests 7 nodes; cluster mpi-sge has 6"},
				{id: "serialmulti", ref: 60, job: func(j *lrm.Job) { j.Nodes = 2 },
					fail: "sge: job serialmulti requests 2 nodes but is not an MPI job"},
			}},
	} {
		t.Run(row.name, func(t *testing.T) {
			eng := sim.NewEngine()
			c, err := New(eng, row.cfg)
			if err != nil {
				t.Fatal(err)
			}
			done, failed := map[string]float64{}, map[string]string{}
			for _, s := range row.subs {
				for k := 0; k < max(s.n, 1); k++ {
					id := s.id
					if s.n > 1 {
						id = fmt.Sprintf("%s%d", s.id, k)
					}
					j := &lrm.Job{ID: id, Work: s.ref * lrm.ReferenceCellsPerSecond, MemoryMB: 512}
					if s.mem > 0 {
						j.MemoryMB = s.mem
					}
					if s.job != nil {
						s.job(j)
					}
					j.OnComplete = func(at sim.Time) { done[id] = float64(at) }
					j.OnFail = func(at sim.Time, reason string) { failed[id] = fmt.Sprintf("%v %s", float64(at), reason) }
					err := c.Submit(j)
					switch {
					case s.fail == "" && err != nil:
						t.Fatalf("submit %s: %v", id, err)
					case s.fail != "" && (err == nil || !strings.Contains(err.Error(), s.fail)):
						t.Errorf("submit %s: error %v, want one containing %q", id, err, s.fail)
					}
				}
			}
			for _, cn := range row.cancels {
				if got := c.Cancel(cn.id); got != cn.want {
					t.Errorf("Cancel(%s) = %v, want %v", cn.id, got, cn.want)
				}
			}
			if p := row.probe; p != nil {
				eng.RunUntil(sim.Time(p.at))
				info := c.Info()
				if info.TotalCPUs != p.total || info.FreeCPUs != p.free || info.RunningJobs != p.running || info.QueuedJobs != p.queue {
					t.Errorf("at %v: %d/%d free, %d running, %d queued; want %d/%d, %d, %d", p.at,
						info.FreeCPUs, info.TotalCPUs, info.RunningJobs, info.QueuedJobs, p.free, p.total, p.running, p.queue)
				}
				if info.Kind != row.cfg.Kind || !info.Stable || info.MPI != row.cfg.MPI || info.NodeMemoryMB != row.cfg.Nodes[len(row.cfg.Nodes)-1].MemoryMB {
					t.Errorf("info wrong: %+v", info)
				}
			}
			end := eng.Run()
			for id, want := range row.done {
				if got, ok := done[id]; !ok || math.Abs(got-want) > 1e-9*want {
					t.Errorf("%s done at %v (%v), want %v", id, got, ok, want)
				}
			}
			for id, want := range row.failed {
				if failed[id] != want {
					t.Errorf("%s failed with %q, want %q", id, failed[id], want)
				}
			}
			if len(failed) != len(row.failed) {
				t.Errorf("failures %v, want %v", failed, row.failed)
			}
			st := c.Stats()
			if st.Completed != row.completed || len(done) != row.completed || st.Failed != len(row.failed) || st.Preemptions != 0 {
				t.Errorf("stats %+v with %d completion callbacks; want %d completed, %d failed, none preempted",
					st, len(done), row.completed, len(row.failed))
			}
			if row.makespan > 0 && float64(end) != row.makespan {
				t.Errorf("makespan %v, want %v", float64(end), row.makespan)
			}
			if info := c.Info(); info.FreeCPUs != info.TotalCPUs || info.RunningJobs != 0 || info.QueuedJobs != 0 {
				t.Errorf("drained cluster still holds something: %+v", info)
			}
		})
	}
}

func TestNewValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"unknown kind": func(c *Config) { c.Kind = "lsf" },
		"no name":      func(c *Config) { c.Name = "" },
		"no nodes":     func(c *Config) { c.Nodes = nil },
		"zero cores":   func(c *Config) { c.Nodes = []NodeClass{{Count: 1, Speed: 1, MemoryMB: 1}} },
		"zero speed":   func(c *Config) { c.Nodes = []NodeClass{{Count: 1, Cores: 1, MemoryMB: 1}} },
		"zero count":   func(c *Config) { c.Nodes = []NodeClass{{Cores: 1, Speed: 1, MemoryMB: 1}} },
		"valid":        nil,
	} {
		cfg := serial
		if mutate != nil {
			mutate(&cfg)
		}
		if _, err := New(sim.NewEngine(), cfg); (err == nil) != (mutate == nil) {
			t.Errorf("%s: New returned %v", name, err)
		}
	}
}

// Allocator oracles. refWholeNode and refSlots are the PBS and SGE
// clusters as they stood as two packages — whole-node allocation over a
// busy flag, slot allocation on a single node — kept so that the folded
// allocator can be required to reproduce each of them event for event.
// refSlots has no multi-node rule (the defect the fold fixed), so its
// streams are serial.

type refNode struct {
	cores, memoryMB      int
	speed                float64
	busy                 bool // refWholeNode
	usedCores, usedMemMB int  // refSlots
}

type refRunning struct {
	job                  *lrm.Job
	nodes                []*refNode
	doneEvent, wallEvent sim.EventID
}

// refCluster is what the two oracles share: construction, queueing,
// Cancel, and the Info and Stats shapes. Node selection, start and
// release — where PBS and SGE differed — are the oracle's own.
type refCluster struct {
	eng     *sim.Engine
	cfg     Config
	nodes   []*refNode
	queue   []*lrm.Job
	running map[string]*refRunning
	stats   lrm.Stats
	// dispatch and release are refWholeNode's or refSlots's.
	dispatch func()
	release  func(*refRunning)
}

func newRef(eng *sim.Engine, cfg Config) *refCluster {
	c := &refCluster{eng: eng, cfg: cfg, running: make(map[string]*refRunning)}
	for _, nc := range cfg.Nodes {
		for k := 0; k < nc.Count; k++ {
			c.nodes = append(c.nodes, &refNode{cores: nc.Cores, speed: nc.Speed, memoryMB: nc.MemoryMB})
		}
	}
	return c
}

func (c *refCluster) Name() string     { return c.cfg.Name }
func (c *refCluster) Stats() lrm.Stats { return c.stats }

// enqueue is the tail both parents' Submit shared once validation passed.
func (c *refCluster) enqueue(j *lrm.Job) error {
	kind := c.cfg.Kind
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
	if len(c.queue) > c.stats.MaxQueueSeen {
		c.stats.MaxQueueSeen = len(c.queue)
	}
	c.dispatch()
	return nil
}

func (c *refCluster) Cancel(jobID string) bool {
	for i, j := range c.queue {
		if j.ID == jobID {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
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

// run is the parents' start once the nodes are marked taken: the done
// event, then the wall-limit event, each releasing, accounting,
// notifying and re-dispatching in the parents' order.
func (c *refCluster) run(j *lrm.Job, r *refRunning, speed float64) {
	dur := j.RuntimeOn(speed)
	c.running[j.ID] = r
	r.doneEvent = c.eng.Schedule(dur, func() {
		c.release(r)
		c.eng.Cancel(r.wallEvent)
		delete(c.running, j.ID)
		c.stats.Completed++
		c.stats.CPUSeconds += dur.Seconds() * speed
		if j.OnComplete != nil {
			j.OnComplete(c.eng.Now())
		}
		c.dispatch()
	})
	if j.WallLimit > 0 && j.WallLimit < dur {
		r.wallEvent = c.eng.Schedule(j.WallLimit, func() {
			c.release(r)
			c.eng.Cancel(r.doneEvent)
			delete(c.running, j.ID)
			c.stats.Failed++
			c.stats.WastedCPU += j.WallLimit.Seconds() * speed
			if j.OnFail != nil {
				j.OnFail(c.eng.Now(), c.cfg.Kind+": wall clock limit exceeded")
			}
			c.dispatch()
		})
	}
}

func (c *refCluster) info() lrm.Info {
	return lrm.Info{
		Name: c.cfg.Name, Kind: c.cfg.Kind, Platforms: []lrm.Platform{c.cfg.Platform},
		Software: c.cfg.Software, MPI: c.cfg.MPI, Stable: true,
		QueuedJobs: len(c.queue), RunningJobs: len(c.running),
	}
}

type refWholeNode struct{ *refCluster }

func newRefWholeNode(eng *sim.Engine, cfg Config) *refWholeNode {
	c := &refWholeNode{newRef(eng, cfg)}
	c.dispatch = c.dispatchWhole
	c.release = func(r *refRunning) {
		for _, n := range r.nodes {
			n.busy = false
		}
	}
	return c
}

func (c *refWholeNode) Submit(j *lrm.Job) error {
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
	return c.enqueue(j)
}

func (c *refWholeNode) dispatchWhole() {
	for qi := 0; qi < len(c.queue); {
		j := c.queue[qi]
		want := j.Nodes
		if want < 1 {
			want = 1
		}
		var targets []*refNode
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
		var aggregate float64
		for _, n := range targets {
			n.busy = true
			aggregate += n.speed
		}
		if len(targets) > 1 {
			aggregate *= mpiEfficiency
		}
		c.run(j, &refRunning{job: j, nodes: targets}, aggregate)
	}
}

func (c *refWholeNode) Info() lrm.Info {
	info := c.info()
	for _, n := range c.nodes {
		info.TotalCPUs++
		if !n.busy {
			info.FreeCPUs++
		}
		if n.memoryMB > info.NodeMemoryMB {
			info.NodeMemoryMB = n.memoryMB
		}
	}
	return info
}

type refSlots struct{ *refCluster }

func newRefSlots(eng *sim.Engine, cfg Config) *refSlots {
	c := &refSlots{newRef(eng, cfg)}
	c.dispatch = c.dispatchSlots
	c.release = func(r *refRunning) {
		r.nodes[0].usedCores--
		r.nodes[0].usedMemMB -= r.job.MemoryMB
	}
	return c
}

func (c *refSlots) Submit(j *lrm.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if j.NeedsMPI && !c.cfg.MPI {
		return fmt.Errorf("sge: cluster %s has no MPI interconnect", c.cfg.Name)
	}
	return c.enqueue(j)
}

func (c *refSlots) dispatchSlots() {
	for qi := 0; qi < len(c.queue); {
		j := c.queue[qi]
		var target *refNode
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
		target.usedCores++
		target.usedMemMB += j.MemoryMB
		c.run(j, &refRunning{job: j, nodes: []*refNode{target}}, target.speed)
	}
}

func (c *refSlots) Info() lrm.Info {
	info := c.info()
	for _, n := range c.nodes {
		info.TotalCPUs += n.cores
		info.FreeCPUs += n.cores - n.usedCores
		if n.memoryMB > info.NodeMemoryMB {
			info.NodeMemoryMB = n.memoryMB
		}
	}
	return info
}

// placed is what the differential test reads from either side: which
// nodes (by index) each running job holds, and the queue in order.
type placed interface {
	lrm.LRM
	placement() (running map[string][]int, queue []string)
}

func nodeIndexes[N comparable](all, held []N) []int {
	var out []int
	for _, h := range held {
		for i, n := range all {
			if n == h {
				out = append(out, i)
			}
		}
	}
	return out
}

func queueIDs(q []*lrm.Job) []string {
	ids := make([]string, len(q))
	for i, j := range q {
		ids[i] = j.ID
	}
	return ids
}

func (c *Cluster) placement() (map[string][]int, []string) {
	run := map[string][]int{}
	for id, r := range c.running {
		run[id] = nodeIndexes(c.nodes, r.nodes)
	}
	return run, queueIDs(c.queue)
}

func (c *refCluster) placement() (map[string][]int, []string) {
	run := map[string][]int{}
	for id, r := range c.running {
		run[id] = nodeIndexes(c.nodes, r.nodes)
	}
	return run, queueIDs(c.queue)
}

// replay drives one seeded job stream through a cluster and returns
// everything observable about the run as lines: every Submit and
// Cancel result, one (job, start, end, outcome, nodes) line per
// terminal job, and Info, Stats, the running set and the queue after
// every event (a zero-delay probe behind each one, so it sees the
// re-dispatch that ends the handler). multi counts the terminal jobs
// that ran on more than one node.
func replay(seed int64, eng *sim.Engine, c placed, multiNode bool) (log []string, multi int) {
	rng := sim.NewRNG(seed)
	type start struct {
		at    sim.Time
		nodes []int
	}
	started := map[string]start{}
	snapshot := func() {
		run, queue := c.placement()
		ids := make([]string, 0, len(run))
		for id, nodes := range run {
			ids = append(ids, id)
			if _, ok := started[id]; !ok {
				started[id] = start{eng.Now(), nodes}
			}
		}
		sort.Strings(ids)
		var b strings.Builder
		for _, id := range ids {
			fmt.Fprintf(&b, " %s@%v", id, run[id])
		}
		log = append(log, fmt.Sprintf("%v state %+v %+v running%s queue %v", eng.Now(), c.Info(), c.Stats(), b.String(), queue))
	}
	ended := func(id, outcome string) {
		st := started[id]
		log = append(log, fmt.Sprintf("job %s start %v end %v %s nodes %v", id, st.at, eng.Now(), outcome, st.nodes))
		if len(st.nodes) > 1 {
			multi++
		}
		delete(started, id)
		eng.Schedule(0, snapshot)
	}
	var ids []string
	at := sim.Time(0)
	for i := 0; i < 60; i++ {
		at = at.Add(rng.ExpDuration(4 * sim.Minute))
		if len(ids) > 0 && rng.Bool(0.15) {
			id := ids[rng.Intn(len(ids))]
			eng.ScheduleAt(at, func() {
				log = append(log, fmt.Sprintf("%v cancel %s %v", eng.Now(), id, c.Cancel(id)))
				delete(started, id)
				snapshot()
			})
			continue
		}
		id := fmt.Sprintf("j%02d", i)
		ids = append(ids, id)
		j := &lrm.Job{
			ID:       id,
			Work:     rng.Uniform(300, 3*3600) * lrm.ReferenceCellsPerSecond,
			MemoryMB: []int{256, 2048, 6000, 12000, 40000}[rng.Choice([]float64{4, 3, 2, 2, 0.5})],
		}
		if multiNode {
			j.Nodes = []int{0, 1, 2, 4, 9}[rng.Choice([]float64{3, 3, 2, 2, 0.3})]
			j.NeedsMPI = j.Nodes > 1 && !rng.Bool(0.1) // a few multi-node jobs forget the flag
		}
		if rng.Bool(0.3) {
			j.WallLimit = sim.Duration(rng.Uniform(600, 2*3600))
		}
		if rng.Bool(0.05) {
			j.Platforms = []lrm.Platform{lrm.WindowsX86}
		}
		j.OnComplete = func(sim.Time) { ended(id, "completed") }
		j.OnFail = func(_ sim.Time, reason string) { ended(id, "failed: "+reason) }
		eng.ScheduleAt(at, func() {
			log = append(log, fmt.Sprintf("%v submit %s %v", eng.Now(), id, c.Submit(j)))
			snapshot()
		})
	}
	eng.Run()
	return log, multi
}

// TestMatchesParentAllocators requires the folded allocator to be the
// parents' on every stream: a Cores: 1 cluster against PBS's
// whole-node allocator (multi-node MPI jobs included) and a Cores: 4
// cluster against SGE's slot allocator.
func TestMatchesParentAllocators(t *testing.T) {
	whole := Config{
		Kind: "pbs", Name: "whole", Platform: lrm.LinuxX86, MPI: true,
		Nodes: []NodeClass{
			{Count: 4, Cores: 1, Speed: 2.0, MemoryMB: 4096},
			{Count: 3, Cores: 1, Speed: 1.5, MemoryMB: 32768},
		},
	}
	packed := Config{
		Kind: "sge", Name: "packed", Platform: lrm.LinuxX86,
		Nodes: []NodeClass{
			{Count: 2, Cores: 4, Speed: 1.5, MemoryMB: 16384},
			{Count: 2, Cores: 4, Speed: 1.0, MemoryMB: 8192},
		},
	}
	for _, side := range []struct {
		cfg       Config
		ref       func(*sim.Engine, Config) placed
		multiNode bool
	}{
		{whole, func(e *sim.Engine, c Config) placed { return newRefWholeNode(e, c) }, true},
		{packed, func(e *sim.Engine, c Config) placed { return newRefSlots(e, c) }, false},
	} {
		terminal, wallFails, multi := 0, 0, 0
		for seed := int64(1); seed <= 200; seed++ {
			eng := sim.NewEngine()
			c, err := New(eng, side.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, m := replay(seed, eng, c, side.multiNode)
			multi += m
			refEng := sim.NewEngine()
			want, _ := replay(seed, refEng, side.ref(refEng, side.cfg), side.multiNode)
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: %d log lines, the parent allocator wrote %d", side.cfg.Kind, seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s seed %d, line %d:\n got  %s\n want %s", side.cfg.Kind, seed, i, got[i], want[i])
				}
				if strings.HasPrefix(got[i], "job ") {
					terminal++
					if strings.Contains(got[i], "wall clock") {
						wallFails++
					}
				}
			}
		}
		if terminal < 200*30 || wallFails == 0 || (multi == 0) == side.multiNode {
			t.Errorf("%s streams too tame: %d terminal jobs, %d wall-limit failures, %d multi-node runs",
				side.cfg.Kind, terminal, wallFails, multi)
		}
	}
}
