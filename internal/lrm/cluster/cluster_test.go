package cluster

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
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
		Kind: "pbs", Name: "hpc", Platform: lrm.LinuxX86,
		Nodes: []NodeClass{
			{Count: 4, Cores: 1, Speed: 2.0, MemoryMB: 4096},
			{Count: 2, Cores: 1, Speed: 1.5, MemoryMB: 32768},
		},
	}
	// serial is a one-node PBS cluster.
	serial = Config{
		Kind: "pbs", Name: "serial", Platform: lrm.LinuxX86,
		Nodes: []NodeClass{{Count: 1, Cores: 1, Speed: 1, MemoryMB: 1024}},
	}
	// slots is an SGE cluster: 2 nodes × 8 slots sharing 16 GB a node.
	slots = Config{
		Kind: "sge", Name: "sge", Platform: lrm.LinuxX86,
		Nodes: []NodeClass{{Count: 2, Cores: 8, Speed: 1.5, MemoryMB: 16384}},
	}
)

// sub is one submission of a table row: n copies (default 1) of a job
// of ref reference-seconds, named id (id0, id1, … when n > 1).
type sub struct {
	id   string
	n    int
	ref  float64
	mem  int    // default 512
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

// TestCluster runs every surviving case of the PBS and SGE suites
// against the one constructor:
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
		{name: "pbs-cancel-queued-and-running", cfg: hpc,
			subs:      []sub{{id: "r", n: 6, ref: 3600}, {id: "q", ref: 3600}},
			cancels:   []cancel{{"q", true}, {"r0", true}, {"r0", false}},
			completed: 5},
		{name: "pbs-info", cfg: hpc,
			subs:  []sub{{id: "one", ref: 3600}},
			probe: &probe{at: sim.Minute, total: 6, free: 5, running: 1}, completed: 1},

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
		{name: "sge-rejects-oversized", cfg: slots,
			subs: []sub{{id: "big", ref: 60, mem: 32768, fail: "sge: no node on sge has 32768 MB"}}},
		{name: "sge-queue-drains-in-order", cfg: slots,
			subs:      []sub{{id: "j", n: 40, ref: 1800}},
			done:      map[string]float64{"j0": 1200, "j15": 1200, "j16": 2400, "j31": 2400, "j32": 3600, "j39": 3600},
			completed: 40},
		{name: "sge-cancel", cfg: slots,
			subs:      []sub{{id: "r", n: 16, ref: 3600}, {id: "queued", ref: 3600}},
			cancels:   []cancel{{"queued", true}, {"r3", true}},
			completed: 15},
		{name: "sge-info-counts-slots", cfg: slots,
			subs:  []sub{{id: "x", ref: 3600}},
			probe: &probe{at: sim.Minute, total: 16, free: 15, running: 1}, completed: 1},
	} {
		t.Run(row.name, func(t *testing.T) {
			eng := sim.NewEngine()
			c, err := New(eng, nil, nil, row.cfg)
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
					j.Owner = &lrm.Callbacks{
						OnComplete: func(at sim.Time) { done[id] = float64(at) },
						OnFail:     func(at sim.Time, reason string) { failed[id] = fmt.Sprintf("%v %s", float64(at), reason) },
					}
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
				if info.Kind != row.cfg.Kind || !info.Stable || info.NodeMemoryMB != row.cfg.Nodes[len(row.cfg.Nodes)-1].MemoryMB {
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
		if _, err := New(sim.NewEngine(), nil, nil, cfg); (err == nil) != (mutate == nil) {
			t.Errorf("%s: New returned %v", name, err)
		}
	}
}

// TestPoolValidation is New's refusals for a Condor pool: the shared
// checks on a pool-shaped config, and the owner process, which needs
// both mean periods and a random stream to draw them from.
func TestPoolValidation(t *testing.T) {
	owner := func(away, busy sim.Duration) func(*Config) {
		return func(c *Config) {
			c.Nodes = []NodeClass{{Count: 1, Cores: 1, Speed: 1, MemoryMB: 1, MeanOwnerAway: away, MeanOwnerBusy: busy}}
		}
	}
	for _, row := range []struct {
		name   string
		mutate func(*Config)
		rng    *sim.RNG
		ok     bool
	}{
		{"no name", func(c *Config) { c.Name = "" }, sim.NewRNG(1), false},
		{"no nodes", func(c *Config) { c.Nodes = nil }, sim.NewRNG(1), false},
		{"zero speed", func(c *Config) { c.Nodes[0].Speed = 0 }, sim.NewRNG(1), false},
		{"owner away without busy", owner(sim.Hour, 0), sim.NewRNG(1), false},
		{"owner busy without away", owner(0, sim.Hour), sim.NewRNG(1), false},
		{"owner without a random stream", owner(sim.Hour, sim.Hour), nil, false},
		{"valid pool", nil, sim.NewRNG(1), true},
	} {
		cfg := workstations(1, sim.Hour, sim.Hour)
		if row.mutate != nil {
			row.mutate(&cfg)
		}
		if _, err := New(sim.NewEngine(), row.rng, nil, cfg); (err == nil) != row.ok {
			t.Errorf("%s: New returned %v", row.name, err)
		}
	}
}

// workstations is a Condor pool of n identical one-slot machines whose
// owners are away for periods of mean away and busy for mean busy.
func workstations(n int, away, busy sim.Duration) Config {
	return Config{
		Kind: "condor", Name: "pool", Platform: lrm.LinuxX86,
		Nodes: []NodeClass{{Count: n, Cores: 1, Speed: 1, MemoryMB: 2048, MeanOwnerAway: away, MeanOwnerBusy: busy}},
	}
}

// TestOwnerNodes runs the Condor pool's cases: one-slot nodes whose
// owner comes and goes on the table's random stream (seed 1). All jobs
// are submitted at time zero, while every owner is still present; the
// cancels run at cancelAt. Owner periods are random, so rows pin
// outcomes — completions, failure reasons, preemptions — and exact
// times only where the first departure fixes them.
func TestOwnerNodes(t *testing.T) {
	// firstLeave is when the table's first owner leaves a node whose
	// owner is busy for a mean minute: the first draw of the stream.
	firstLeave := float64(sim.NewRNG(1).ExpDuration(sim.Minute))
	fast := workstations(1, 1000*sim.Hour, sim.Minute)
	fast.Nodes[0].Speed = 2
	thrash := workstations(2, 3*sim.Hour, 3*sim.Hour)
	thrash.MaxRequeues = 20
	mixed := workstations(1, 100*sim.Hour, sim.Minute)
	mixed.Nodes = append([]NodeClass{{Count: 1, Cores: 1, Speed: 1, MemoryMB: 512,
		MeanOwnerAway: 100 * sim.Hour, MeanOwnerBusy: sim.Minute}}, mixed.Nodes...)
	for _, row := range []struct {
		name     string
		cfg      Config
		subs     []sub
		cancelAt sim.Duration
		cancels  []cancel
		until    sim.Duration
		done     map[string]float64 // job → completion time
		failed   map[string]string  // job → reason
		// completed counts completions; preempted is the least number
		// of preemptions.
		completed, preempted int
	}{
		{name: "short-jobs-complete", cfg: workstations(4, 8*sim.Hour, 2*sim.Hour),
			subs: []sub{{id: "j", n: 20, ref: 600}}, until: 30 * sim.Day, completed: 20},
		{name: "long-jobs-thrash", cfg: thrash,
			// A 40-hour job on machines whose owners are away ~3 h at a
			// time never finishes: the 21st preemption fails it.
			subs: []sub{{id: "long", ref: 40 * 3600}}, until: 60 * sim.Day,
			failed: map[string]string{"long": "condor: requeue limit exceeded"}, preempted: 21},
		{name: "preempted-job-completes", cfg: workstations(3, 4*sim.Hour, 2*sim.Hour),
			// ~4-hour windows: a 2-hour job may be preempted but finishes.
			subs: []sub{{id: "medium", ref: 2 * 3600}}, until: 30 * sim.Day, completed: 1},
		{name: "speed-1", cfg: workstations(1, 1000*sim.Hour, sim.Minute),
			subs: []sub{{id: "j", ref: 3600}}, until: 10 * sim.Day,
			done: map[string]float64{"j": firstLeave + 3600}, completed: 1},
		{name: "speed-2", cfg: fast,
			subs: []sub{{id: "j", ref: 3600}}, until: 10 * sim.Day,
			done: map[string]float64{"j": firstLeave + 1800}, completed: 1},
		{name: "requirements", cfg: mixed,
			// The big job waits for the one machine that has the memory;
			// what no machine can run is refused at Submit.
			subs: []sub{
				{id: "big", ref: 60, mem: 1024},
				{id: "huge", ref: 60, mem: 4096, fail: "condor: no node on pool has 4096 MB"},
			},
			until: 2 * sim.Day, completed: 1},
		{name: "cancel-running", cfg: workstations(1, 100*sim.Hour, sim.Minute),
			subs:     []sub{{id: "c1", ref: 3600}},
			cancelAt: 10 * sim.Minute, cancels: []cancel{{"c1", true}, {"c1", false}, {"never-submitted", false}},
			until: sim.Day},
	} {
		t.Run(row.name, func(t *testing.T) {
			eng := sim.NewEngine()
			c, err := New(eng, sim.NewRNG(1), nil, row.cfg)
			if err != nil {
				t.Fatal(err)
			}
			done, failed := map[string]float64{}, map[string]string{}
			var delivered float64 // reference-seconds of completed jobs
			for _, s := range row.subs {
				for k := 0; k < max(s.n, 1); k++ {
					id := s.id
					if s.n > 1 {
						id = fmt.Sprintf("%s%d", s.id, k)
					}
					j := &lrm.Job{ID: id, Work: s.ref * lrm.ReferenceCellsPerSecond, MemoryMB: 256}
					if s.mem > 0 {
						j.MemoryMB = s.mem
					}
					j.Owner = &lrm.Callbacks{
						OnComplete: func(at sim.Time) { done[id] = float64(at); delivered += s.ref },
						OnFail:     func(_ sim.Time, reason string) { failed[id] = reason },
					}
					err := c.Submit(j)
					switch {
					case s.fail == "" && err != nil:
						t.Fatalf("submit %s: %v", id, err)
					case s.fail != "" && (err == nil || !strings.Contains(err.Error(), s.fail)):
						t.Errorf("submit %s: error %v, want one containing %q", id, err, s.fail)
					}
				}
			}
			eng.RunUntil(sim.Time(row.cancelAt))
			for _, cn := range row.cancels {
				if got := c.Cancel(cn.id); got != cn.want {
					t.Errorf("Cancel(%s) = %v, want %v", cn.id, got, cn.want)
				}
			}
			eng.RunUntil(sim.Time(row.until))
			for id, want := range row.done {
				if got, ok := done[id]; !ok || math.Abs(got-want) > 1e-9*want {
					t.Errorf("%s done at %v (%v), want %v", id, got, ok, want)
				}
			}
			if !maps.Equal(failed, row.failed) {
				t.Errorf("failures %v, want %v", failed, row.failed)
			}
			st := c.Stats()
			if st.Completed != row.completed || len(done) != row.completed || st.Failed != len(row.failed) {
				t.Errorf("stats %+v with %d completion callbacks; want %d completed, %d failed",
					st, len(done), row.completed, len(row.failed))
			}
			if st.Preemptions < row.preempted || (st.Preemptions > 0 && st.WastedCPU <= 0) {
				t.Errorf("%d preemptions wasting %.0f s; want at least %d, and waste from each",
					st.Preemptions, st.WastedCPU, row.preempted)
			}
			// Completed work is delivered once, whoever's machine ran it.
			if math.Abs(st.CPUSeconds-delivered) > 1e-9*delivered {
				t.Errorf("delivered %v reference-seconds, completed jobs needed %v", st.CPUSeconds, delivered)
			}
			if info := c.Info(); info.Kind != "condor" || info.Stable || info.RunningJobs+info.QueuedJobs != 0 {
				t.Errorf("info at the horizon: %+v", info)
			}
		})
	}
}

// TestInfo pins what MDS reads. Stable holds exactly when no node has
// an owner, whatever the kind. A slot is free while idle with its
// owner away, so a non-empty queue of jobs any node could run means no
// free slot. A poll allocates nothing.
func TestInfo(t *testing.T) {
	pool := workstations(5, 10*sim.Hour, 10*sim.Hour)
	dedicatedPool := workstations(5, 0, 0)
	ownedPBS := hpc
	ownedPBS.Nodes = append(slices.Clone(hpc.Nodes), NodeClass{Count: 2, Cores: 1, Speed: 1, MemoryMB: 4096,
		MeanOwnerAway: 2 * sim.Hour, MeanOwnerBusy: sim.Hour})
	for _, row := range []struct {
		name          string
		cfg           Config
		total, memory int
		stable        bool
	}{
		{"pbs", hpc, 6, 32768, true},
		{"sge", slots, 16, 16384, true},
		{"condor-pool", pool, 5, 2048, false},
		{"condor-without-owners", dedicatedPool, 5, 2048, true},
		{"pbs-with-an-owner-class", ownedPBS, 8, 32768, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			eng := sim.NewEngine()
			c, err := New(eng, sim.NewRNG(1), nil, row.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if info := c.Info(); (info.FreeCPUs == info.TotalCPUs) != row.stable {
				t.Errorf("at time zero %d of %d slots free; owners are present until they first leave", info.FreeCPUs, info.TotalCPUs)
			}
			for i := 0; i < 40; i++ {
				j := &lrm.Job{ID: fmt.Sprintf("j%d", i), Work: 3 * 3600 * lrm.ReferenceCellsPerSecond, MemoryMB: 256}
				if err := c.Submit(j); err != nil {
					t.Fatal(err)
				}
			}
			for h := 0; h < 96; h++ {
				eng.RunUntil(sim.Time(sim.Duration(h) * sim.Hour))
				info := c.Info()
				if info.Kind != row.cfg.Kind || info.TotalCPUs != row.total || info.NodeMemoryMB != row.memory ||
					info.Stable != row.stable || !slices.Equal(info.Platforms, []lrm.Platform{lrm.LinuxX86}) {
					t.Fatalf("hour %d: info misdescribes the cluster: %+v", h, info)
				}
				if info.FreeCPUs < 0 || info.FreeCPUs+info.RunningJobs > info.TotalCPUs || (info.QueuedJobs > 0 && info.FreeCPUs > 0) {
					t.Fatalf("hour %d: %d free, %d running, %d queued of %d slots", h,
						info.FreeCPUs, info.RunningJobs, info.QueuedJobs, info.TotalCPUs)
				}
			}
			if allocs := testing.AllocsPerRun(100, func() { _ = c.Info() }); allocs != 0 {
				t.Errorf("Info allocates %v times a call", allocs)
			}
		})
	}
}

// TestPreemptedJobAllocatesNothing: a job's record is requeued by each
// preemption and goes back to the cluster's free list wherever the job
// leaves, so once the cluster is warm a job costs no allocation from
// Submit to its end — completed after k preemptions for every k,
// cancelled queued or running, or failed past the requeue limit.
func TestPreemptedJobAllocatesNothing(t *testing.T) {
	const hour = 3600 * lrm.ReferenceCellsPerSecond
	submit := func(c *Cluster, j *lrm.Job) {
		if err := c.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	completes := func(k int) func(*sim.Engine, *Cluster) {
		j := &lrm.Job{ID: "j", Work: hour, MemoryMB: 256}
		return func(eng *sim.Engine, c *Cluster) {
			submit(c, j)
			for i := 0; i < k; i++ {
				c.preempt(c.nodes[0].jobs[0]) // the owner-return path; the job restarts at once
			}
			eng.Run()
		}
	}
	limited := hpc
	limited.MaxRequeues = 1
	// The jobs are made once: only the cluster's own costs are counted.
	run, wait := &lrm.Job{ID: "run", Work: hour, MemoryMB: 256}, &lrm.Job{ID: "wait", Work: hour, MemoryMB: 256}
	requeued := &lrm.Job{ID: "r", Work: hour, MemoryMB: 256}
	for _, tc := range []struct {
		name string
		cfg  Config
		life func(*sim.Engine, *Cluster)
		want lrm.Stats // per life
	}{
		{"completes", hpc, completes(0), lrm.Stats{Completed: 1}},
		{"completes-after-1", hpc, completes(1), lrm.Stats{Completed: 1, Preemptions: 1}},
		{"completes-after-5", hpc, completes(5), lrm.Stats{Completed: 1, Preemptions: 5}},
		{"cancel-queued-and-running", serial, func(eng *sim.Engine, c *Cluster) {
			submit(c, run)
			submit(c, wait)
			if !c.Cancel("wait") || !c.Cancel("run") {
				t.Fatal("cancel missed a job")
			}
			eng.Run()
		}, lrm.Stats{}},
		{"requeue-limit", limited, func(eng *sim.Engine, c *Cluster) {
			submit(c, requeued)
			c.preempt(c.nodes[0].jobs[0])
			c.preempt(c.nodes[0].jobs[0])
			eng.Run()
		}, lrm.Stats{Failed: 1, Preemptions: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			c, err := New(eng, nil, nil, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			before := c.Stats()
			allocs := testing.AllocsPerRun(50, func() { tc.life(eng, c) })
			st := c.Stats()
			if st.Completed-before.Completed != 51*tc.want.Completed || st.Failed-before.Failed != 51*tc.want.Failed ||
				st.Preemptions-before.Preemptions != 51*tc.want.Preemptions || len(c.queue) != 0 || c.started != 0 {
				t.Fatalf("51 lives left %+v from %+v with %d queued and %d running, want %+v each",
					st, before, len(c.queue), c.started, tc.want)
			}
			if allocs != 0 {
				t.Errorf("a job's life on a warm cluster costs %v allocations, want 0", allocs)
			}
		})
	}
}

// checkFree holds the free list to its invariant: every record on it is
// zeroed, appears on it once, and is reachable from neither the queue
// nor any node.
func (c *Cluster) checkFree() error {
	held := map[*running]string{}
	for _, r := range c.queue {
		held[r] = "queued " + r.job.ID
	}
	for i, n := range c.nodes {
		for _, r := range n.jobs {
			held[r] = fmt.Sprintf("running %s on node %d", r.job.ID, i)
		}
	}
	seen := map[*running]bool{}
	for i, r := range c.free {
		switch {
		case seen[r]:
			return fmt.Errorf("free record %d is on the list twice", i)
		case held[r] != "":
			return fmt.Errorf("free record %d is also %s", i, held[r])
		case !reflect.DeepEqual(*r, running{}):
			return fmt.Errorf("free record %d is not zeroed", i)
		}
		seen[r] = true
	}
	return nil
}

// Allocator oracles. refWholeNode and refSlots are the PBS and SGE
// clusters as they stood as two packages — whole-node allocation over a
// busy flag, slot allocation on a single node — kept so that the folded
// allocator can be required to reproduce each of them event for event.
// Every job is serial: it holds one node (PBS) or one slot (SGE).

type refNode struct {
	cores, memoryMB      int
	speed                float64
	busy                 bool // refWholeNode
	usedCores, usedMemMB int  // refSlots
}

type refRunning struct {
	job       *lrm.Job
	node      *refNode
	doneEvent sim.EventID
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

// Submit is what both parents' Submit shared.
func (c *refCluster) Submit(j *lrm.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	satisfiable := false
	for _, n := range c.nodes {
		if j.MemoryMB <= n.memoryMB {
			satisfiable = true
			break
		}
	}
	if !satisfiable {
		return fmt.Errorf("%s: no node on %s has %d MB", c.cfg.Kind, c.cfg.Name, j.MemoryMB)
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
		c.release(r)
		delete(c.running, jobID)
		c.dispatch()
		return true
	}
	return false
}

// run is the parents' start once the node is marked taken: the done
// event releasing, accounting, notifying and re-dispatching in the
// parents' order.
func (c *refCluster) run(j *lrm.Job, r *refRunning) {
	speed := r.node.speed
	dur := j.RuntimeOn(speed)
	c.running[j.ID] = r
	r.doneEvent = c.eng.Schedule(dur, func() {
		c.release(r)
		delete(c.running, j.ID)
		c.stats.Completed++
		c.stats.CPUSeconds += dur.Seconds() * speed
		if j.Owner != nil {
			j.Owner.Complete(j, c.eng.Now())
		}
		c.dispatch()
	})
}

func (c *refCluster) info() lrm.Info {
	return lrm.Info{
		Name: c.cfg.Name, Kind: c.cfg.Kind, Platforms: []lrm.Platform{c.cfg.Platform}, Stable: true,
		QueuedJobs: len(c.queue), RunningJobs: len(c.running),
	}
}

type refWholeNode struct{ *refCluster }

func newRefWholeNode(eng *sim.Engine, cfg Config) *refWholeNode {
	c := &refWholeNode{newRef(eng, cfg)}
	c.dispatch = c.dispatchWhole
	c.release = func(r *refRunning) { r.node.busy = false }
	return c
}

func (c *refWholeNode) dispatchWhole() {
	for qi := 0; qi < len(c.queue); {
		j := c.queue[qi]
		var target *refNode
		for _, n := range c.nodes {
			if !n.busy && j.MemoryMB <= n.memoryMB {
				target = n
				break
			}
		}
		if target == nil {
			qi++
			continue
		}
		c.queue = append(c.queue[:qi], c.queue[qi+1:]...)
		target.busy = true
		c.run(j, &refRunning{job: j, node: target})
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
		r.node.usedCores--
		r.node.usedMemMB -= r.job.MemoryMB
	}
	return c
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
		c.run(j, &refRunning{job: j, node: target})
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

// refPool is the Condor pool as it stood as its own package: one
// machine a node, an owner process per machine, vanilla-universe
// preemption with a requeue limit, and no Submit checks.
type refPool struct {
	eng       *sim.Engine
	rng       *sim.RNG
	cfg       Config
	machines  []*refMachine
	platforms []lrm.Platform
	queue     []refQueued
	stats     lrm.Stats
	requeues  map[string]int
}

type refMachine struct {
	speed        float64
	memoryMB     int
	away, busy   sim.Duration
	ownerPresent bool
	running      *refRun
}

type refRun struct {
	job       *lrm.Job
	startedAt sim.Time
	doneEvent sim.EventID
}

type refQueued struct {
	job      *lrm.Job
	queuedAt sim.Time
}

func newRefPool(eng *sim.Engine, rng *sim.RNG, cfg Config) *refPool {
	p := &refPool{eng: eng, rng: rng, cfg: cfg, platforms: []lrm.Platform{cfg.Platform}, requeues: make(map[string]int)}
	for _, nc := range cfg.Nodes {
		for k := 0; k < nc.Count; k++ {
			m := &refMachine{speed: nc.Speed, memoryMB: nc.MemoryMB, away: nc.MeanOwnerAway, busy: nc.MeanOwnerBusy, ownerPresent: true}
			p.machines = append(p.machines, m)
			p.scheduleOwnerDeparture(m)
		}
	}
	return p
}

func (p *refPool) Name() string     { return p.cfg.Name }
func (p *refPool) Stats() lrm.Stats { return p.stats }

func (p *refPool) scheduleOwnerDeparture(m *refMachine) {
	p.eng.Schedule(p.rng.ExpDuration(m.busy), func() {
		m.ownerPresent = false
		p.scheduleOwnerReturn(m)
		p.tryDispatch()
	})
}

func (p *refPool) scheduleOwnerReturn(m *refMachine) {
	p.eng.Schedule(p.rng.ExpDuration(m.away), func() {
		m.ownerPresent = true
		if m.running != nil {
			p.preempt(m)
		}
		p.scheduleOwnerDeparture(m)
	})
}

func (p *refPool) preempt(m *refMachine) {
	r := m.running
	m.running = nil
	p.eng.Cancel(r.doneEvent)
	p.stats.Preemptions++
	p.stats.WastedCPU += p.eng.Now().Sub(r.startedAt).Seconds() * m.speed
	requeues := p.requeues[r.job.ID] + 1
	p.requeues[r.job.ID] = requeues
	if p.cfg.MaxRequeues > 0 && requeues > p.cfg.MaxRequeues {
		p.stats.Failed++
		delete(p.requeues, r.job.ID)
		if r.job.Owner != nil {
			r.job.Owner.Fail(r.job, p.eng.Now(), "condor: requeue limit exceeded")
		}
		return
	}
	p.queue = append(p.queue, refQueued{r.job, p.eng.Now()})
	p.tryDispatch()
}

func (p *refPool) Submit(j *lrm.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	p.stats.TotalQueued++
	p.queue = append(p.queue, refQueued{j, p.eng.Now()})
	if len(p.queue) > p.stats.MaxQueueSeen {
		p.stats.MaxQueueSeen = len(p.queue)
	}
	p.tryDispatch()
	return nil
}

func (p *refPool) Cancel(jobID string) bool {
	for i, q := range p.queue {
		if q.job.ID == jobID {
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			delete(p.requeues, jobID)
			return true
		}
	}
	for _, m := range p.machines {
		if m.running != nil && m.running.job.ID == jobID {
			p.eng.Cancel(m.running.doneEvent)
			m.running = nil
			delete(p.requeues, jobID)
			p.tryDispatch()
			return true
		}
	}
	return false
}

func (p *refPool) tryDispatch() {
	for qi := 0; qi < len(p.queue); {
		q := p.queue[qi]
		var target *refMachine
		for _, m := range p.machines {
			if !m.ownerPresent && m.running == nil && q.job.MemoryMB <= m.memoryMB {
				target = m
				break
			}
		}
		if target == nil {
			qi++
			continue
		}
		p.queue = append(p.queue[:qi], p.queue[qi+1:]...)
		p.start(q.job, target)
	}
}

func (p *refPool) start(j *lrm.Job, m *refMachine) {
	r := &refRun{job: j, startedAt: p.eng.Now()}
	m.running = r
	dur := j.RuntimeOn(m.speed)
	r.doneEvent = p.eng.Schedule(dur, func() {
		m.running = nil
		p.stats.Completed++
		p.stats.CPUSeconds += dur.Seconds() * m.speed
		delete(p.requeues, j.ID)
		if j.Owner != nil {
			j.Owner.Complete(j, p.eng.Now())
		}
		p.tryDispatch()
	})
}

func (p *refPool) Info() lrm.Info {
	info := lrm.Info{Name: p.cfg.Name, Kind: "condor", TotalCPUs: len(p.machines), Platforms: p.platforms, QueuedJobs: len(p.queue)}
	for _, m := range p.machines {
		info.NodeMemoryMB = max(info.NodeMemoryMB, m.memoryMB)
		if m.running != nil {
			info.RunningJobs++
		} else if !m.ownerPresent {
			info.FreeCPUs++
		}
	}
	return info
}

func (p *refPool) placement() (map[string]int, []string) {
	run := map[string]int{}
	for i, m := range p.machines {
		if m.running != nil {
			run[m.running.job.ID] = i
		}
	}
	ids := make([]string, len(p.queue))
	for i, q := range p.queue {
		ids[i] = q.job.ID
	}
	return run, ids
}

// placed is what the differential test reads from either side: which
// node (by index) each running job holds, and the queue in order.
type placed interface {
	lrm.LRM
	placement() (running map[string]int, queue []string)
}

func (c *Cluster) placement() (map[string]int, []string) {
	run := map[string]int{}
	for i, n := range c.nodes {
		for _, r := range n.jobs {
			run[r.job.ID] = i
		}
	}
	queue := make([]string, len(c.queue))
	for i, r := range c.queue {
		queue[i] = r.job.ID
	}
	return run, queue
}

func (c *refCluster) placement() (map[string]int, []string) {
	run := map[string]int{}
	for id, r := range c.running {
		run[id] = slices.Index(c.nodes, r.node)
	}
	ids := make([]string, len(c.queue))
	for i, j := range c.queue {
		ids[i] = j.ID
	}
	return run, ids
}

// replay drives one seeded job stream through a cluster and returns
// everything observable about the run as lines: every Submit and
// Cancel result, one (job, start, end, outcome, node) line per terminal
// job, and Info, Stats, the running set and the queue after every event
// (a zero-delay probe behind each one, so it sees the re-dispatch that
// ends the handler). A pool stream holds only jobs the meta-scheduler's
// eligibility check lets reach a pool — no foreign platform, no more
// memory than its largest machine — and, since owners come and go
// forever, is probed every ten minutes up to a three-day horizon
// instead of run dry.
func replay(seed int64, eng *sim.Engine, c placed, pool bool) (log []string) {
	rng := sim.NewRNG(seed)
	type start struct {
		at   sim.Time
		node int
	}
	started := map[string]start{}
	snapshot := func() {
		run, queue := c.placement()
		ids := make([]string, 0, len(run))
		for id, node := range run {
			ids = append(ids, id)
			if _, ok := started[id]; !ok {
				started[id] = start{eng.Now(), node}
			}
		}
		sort.Strings(ids)
		var b strings.Builder
		for _, id := range ids {
			fmt.Fprintf(&b, " %s@%d", id, run[id])
		}
		log = append(log, fmt.Sprintf("%v state %+v %+v running%s queue %v", eng.Now(), c.Info(), c.Stats(), b.String(), queue))
		if c, ok := c.(*Cluster); ok {
			if err := c.checkFree(); err != nil { // a line the oracle never writes
				log = append(log, fmt.Sprintf("%v free list: %v", eng.Now(), err))
			}
		}
	}
	ended := func(id, outcome string) {
		st := started[id]
		log = append(log, fmt.Sprintf("job %s start %v end %v %s node %d", id, st.at, eng.Now(), outcome, st.node))
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
		j := &lrm.Job{ID: id, Work: rng.Uniform(300, 3*3600) * lrm.ReferenceCellsPerSecond}
		if pool {
			j.MemoryMB = []int{256, 1024, 2048}[rng.Intn(3)]
		} else {
			j.MemoryMB = []int{256, 2048, 6000, 12000, 40000}[rng.Choice([]float64{4, 3, 2, 2, 0.5})]
		}
		j.Owner = &lrm.Callbacks{
			OnComplete: func(sim.Time) { ended(id, "completed") },
			OnFail:     func(_ sim.Time, reason string) { ended(id, "failed: "+reason) },
		}
		eng.ScheduleAt(at, func() {
			log = append(log, fmt.Sprintf("%v submit %s %v", eng.Now(), id, c.Submit(j)))
			snapshot()
		})
	}
	if !pool {
		eng.Run()
		return log
	}
	const horizon = sim.Time(3 * sim.Day)
	for at := sim.Time(0); at < horizon; at = at.Add(10 * sim.Minute) {
		eng.ScheduleAt(at, snapshot)
	}
	eng.RunUntil(horizon)
	return log
}

// allocatorSide is one of the parent allocators with the cluster the
// folded allocator must reproduce it on.
type allocatorSide struct {
	cfg  Config
	ref  func(*sim.Engine, *sim.RNG, Config) placed
	pool bool
}

// allocatorSides are a Cores: 1 cluster against PBS's whole-node
// allocator, a Cores: 4 cluster against SGE's slot allocator, and a
// cluster of owner nodes against the Condor pool.
var allocatorSides = []allocatorSide{
	{Config{
		Kind: "pbs", Name: "whole", Platform: lrm.LinuxX86,
		Nodes: []NodeClass{
			{Count: 4, Cores: 1, Speed: 2.0, MemoryMB: 4096},
			{Count: 3, Cores: 1, Speed: 1.5, MemoryMB: 32768},
		},
	}, func(e *sim.Engine, _ *sim.RNG, c Config) placed { return newRefWholeNode(e, c) }, false},
	{Config{
		Kind: "sge", Name: "packed", Platform: lrm.LinuxX86,
		Nodes: []NodeClass{
			{Count: 2, Cores: 4, Speed: 1.5, MemoryMB: 16384},
			{Count: 2, Cores: 4, Speed: 1.0, MemoryMB: 8192},
		},
	}, func(e *sim.Engine, _ *sim.RNG, c Config) placed { return newRefSlots(e, c) }, false},
	{Config{
		Kind: "condor", Name: "pool", Platform: lrm.LinuxX86,
		Nodes: []NodeClass{
			{Count: 2, Cores: 1, Speed: 1.2, MemoryMB: 2048, MeanOwnerAway: 2 * sim.Hour, MeanOwnerBusy: sim.Hour},
			{Count: 3, Cores: 1, Speed: 0.8, MemoryMB: 1024, MeanOwnerAway: 3 * sim.Hour, MeanOwnerBusy: 30 * sim.Minute},
			{Count: 1, Cores: 1, Speed: 1.0, MemoryMB: 2048, MeanOwnerAway: 5 * sim.Hour, MeanOwnerBusy: 2 * sim.Hour},
		},
	}, func(e *sim.Engine, rng *sim.RNG, c Config) placed { return newRefPool(e, rng, c) }, true},
}

// matchParent replays stream seed on side's cluster and on its parent
// allocator, owners drawn from the same stream and, on the pool, a
// requeue limit of maxRequeues, and fails at the first line they
// disagree on. It returns the cluster's log and how many records its
// stream reused.
func matchParent(t *testing.T, side allocatorSide, seed int64, maxRequeues int) (log []string, reused int) {
	t.Helper()
	cfg := side.cfg
	if side.pool {
		cfg.MaxRequeues = maxRequeues
	}
	eng := sim.NewEngine()
	c, err := New(eng, sim.NewRNG(-seed), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := replay(seed, eng, c, side.pool)
	// Every record ever allocated is on the free list or held.
	reused = c.stats.TotalQueued - (len(c.free) + len(c.queue) + c.started)
	refEng := sim.NewEngine()
	want := replay(seed, refEng, side.ref(refEng, sim.NewRNG(-seed), cfg), side.pool)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("%s seed %d, line %d:\n got  %s\n want %s", cfg.Kind, seed, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s seed %d: %d log lines, the parent allocator wrote %d", cfg.Kind, seed, len(got), len(want))
	}
	return got, reused
}

// TestMatchesParentAllocators requires the folded allocator to be the
// parents' on every stream of every side, with a requeue limit of 0
// (unlimited), 1 or 2 by seed on the pool. Every snapshot also holds
// the cluster's free list to checkFree, and the streams must reuse
// records.
func TestMatchesParentAllocators(t *testing.T) {
	for _, side := range allocatorSides {
		terminal, requeueFails, reused := 0, 0, 0
		for seed := int64(1); seed <= 200; seed++ {
			log, r := matchParent(t, side, seed, int(seed%3))
			reused += r
			for _, line := range log {
				if strings.HasPrefix(line, "job ") {
					terminal++
					if strings.Contains(line, "requeue limit") {
						requeueFails++
					}
				}
			}
		}
		if terminal < 200*30 || (requeueFails == 0) == side.pool || reused == 0 {
			t.Errorf("%s streams too tame: %d terminal jobs, %d requeue-limit failures, %d reused records",
				side.cfg.Kind, terminal, requeueFails, reused)
		}
	}
}
