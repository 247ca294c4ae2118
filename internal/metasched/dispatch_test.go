package metasched

import (
	"fmt"
	"math"
	"testing"

	"lattice/internal/grid/mds"
	"lattice/internal/lrm"
	"lattice/internal/lrm/cluster"
	"lattice/internal/obs"
	"lattice/internal/sim"
)

// dispatchAllocBudget is what one submit→complete cycle costs on a
// one-cluster scheduler: the GridJob alone. Its embedded description is
// the lrm.Job the cluster runs, and its first attempt — that job's
// Owner, its staged-submit and its stage-out event — sits inline beside
// it, so the first dispatch builds no record. With no hub there is no
// per-resource placement counter, and no label list is built for one
// (it was, once, asked of the nil hub on every placement: a second
// allocation). The cluster's record of the job comes from its free list,
// and engine events and the resource's running list, which only grows
// to its high-water mark, cost nothing. A retry would add one record,
// its attempt and its copy of the lrm.Job together. With a cluster
// record made per job the cycle cost 3; with the attempt record apart
// from the GridJob, 4; with an *event per scheduled event,
// OnComplete/OnFail closures on the lrm.Job, a submit closure, a
// completion closure and a copied node list, 10 (11 under the race
// detector, which now adds nothing); the adapter path before that cost
// 16.
const dispatchAllocBudget = 1

func TestDispatchAllocations(t *testing.T) {
	eng := sim.NewEngine()
	idx, err := mds.NewIndex(eng, 1000*sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	hpc, err := cluster.New(eng, nil, nil, cluster.Config{
		Kind: "pbs", Name: "hpc", Platform: lrm.LinuxX86,
		Nodes: []cluster.NodeClass{{Count: 4, Cores: 1, Speed: 1, MemoryMB: 2048}},
	})
	if err != nil {
		t.Fatal(err)
	}
	idx.Publish(hpc.Info())
	cfg := DefaultConfig()
	cfg.RescanInterval = 0 // no periodic scan: Run returns when the job is done
	sched := New(eng, idx, cfg, Options{})
	if err := sched.Register(hpc, 1); err != nil {
		t.Fatal(err)
	}
	const runs = 200
	ids := make([]string, runs+1)
	for i := range ids {
		ids[i] = fmt.Sprintf("j%d", i)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		j := &GridJob{Job: lrm.Job{ID: ids[next], Work: 60 * lrm.ReferenceCellsPerSecond}}
		next++
		sched.submit(j, nil)
		eng.Run()
		if j.Status != StatusCompleted {
			t.Fatalf("%s is %v after the run", j.ID, j.Status)
		}
	})
	if allocs > dispatchAllocBudget {
		t.Errorf("%.0f allocations per submit→complete cycle, budget %d", allocs, dispatchAllocBudget)
	}
	t.Logf("%.0f allocations per submit→complete cycle", allocs)
}

// refusingOnce refuses every other submission with one error, the way a
// fault wrapper's gatekeeper window does, and passes the rest on.
type refusingOnce struct {
	lrm.LRM
	submits int
	err     error
}

func (r *refusingOnce) Submit(j *lrm.Job) error {
	if r.submits++; r.submits%2 == 1 {
		return r.err
	}
	return r.LRM.Submit(j)
}

// refusedAllocBudget is what a job its resource refuses once and then
// runs costs, with or without a hub: the GridJob and the retry's record
// (its attempt and its copy of the lrm.Job). The backoff timer is the
// job itself, (*retryPlace)(j), and the requeue event's detail is built
// once per refusal text and backoff; a refusal once cost a timer
// closure and a formatted detail too, 5 in all.
const refusedAllocBudget = 2

// TestRefusedDispatchAllocations pins refusedAllocBudget.
func TestRefusedDispatchAllocations(t *testing.T) {
	for _, withHub := range []bool{false, true} {
		eng := sim.NewEngine()
		idx, err := mds.NewIndex(eng, 1000*sim.Day)
		if err != nil {
			t.Fatal(err)
		}
		hpc, err := cluster.New(eng, nil, nil, cluster.Config{
			Kind: "pbs", Name: "hpc", Platform: lrm.LinuxX86,
			Nodes: []cluster.NodeClass{{Count: 4, Cores: 1, Speed: 1, MemoryMB: 2048}},
		})
		if err != nil {
			t.Fatal(err)
		}
		idx.Publish(hpc.Info())
		cfg := DefaultConfig()
		cfg.RescanInterval = 0 // no periodic scan: Run returns when the job is done
		opts := Options{}
		if withHub {
			opts.Obs = obs.New(eng)
		}
		sched := New(eng, idx, cfg, opts)
		res := &refusingOnce{LRM: hpc, err: fmt.Errorf("faults: hpc gatekeeper refused the submission")}
		if err := sched.Register(res, 1); err != nil {
			t.Fatal(err)
		}
		const runs = 200
		ids := make([]string, runs+1)
		for i := range ids {
			ids[i] = fmt.Sprintf("j%d", i)
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			j := &GridJob{Job: lrm.Job{ID: ids[next], Work: 60 * lrm.ReferenceCellsPerSecond}}
			next++
			sched.submit(j, nil)
			eng.Run()
			if j.Status != StatusCompleted || j.Attempts != 2 {
				t.Fatalf("%s is %v after %d attempts", j.ID, j.Status, j.Attempts)
			}
		})
		if allocs > refusedAllocBudget {
			t.Errorf("hub %v: %.0f allocations per refused-once submit→complete cycle, budget %d", withHub, allocs, refusedAllocBudget)
		}
		t.Logf("hub %v: %.0f allocations per refused-once submit→complete cycle", withHub, allocs)
	}
}

// A job lrm.Job.Validate refuses is refused where every dispatch is
// checked, at the LRM's own Submit. No resource will ever take it, so
// the refusal is its one terminal: it fails at once with the LRM's
// error as its reason, its owner is told once, and it never backs off
// to be refused again. (The scheduler adds its per-job overhead first,
// so only work still not positive past it is refused.)
func TestSubmitRejectsInvalidJob(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*GridJob)
	}{
		{"no ID", func(j *GridJob) { j.ID = "" }},
		{"NaN work", func(j *GridJob) { j.Work = math.NaN() }},
		{"infinite work", func(j *GridJob) { j.Work = math.Inf(1) }},
		{"negative past the overhead", func(j *GridJob) { j.Work = -2 * PerJobOverheadSeconds * lrm.ReferenceCellsPerSecond }},
		{"negative memory", func(j *GridJob) { j.MemoryMB = -1 }},
	} {
		eng := sim.NewEngine()
		idx, err := mds.NewIndex(eng, 1000*sim.Day)
		if err != nil {
			t.Fatal(err)
		}
		hpc, err := cluster.New(eng, nil, nil, cluster.Config{
			Kind: "pbs", Name: "hpc", Platform: lrm.LinuxX86,
			Nodes: []cluster.NodeClass{{Count: 4, Cores: 1, Speed: 1, MemoryMB: 2048}},
		})
		if err != nil {
			t.Fatal(err)
		}
		idx.Publish(hpc.Info())
		hub := obs.New(eng)
		sched := New(eng, idx, DefaultConfig(), Options{Obs: hub})
		if err := sched.Register(hpc, 1); err != nil {
			t.Fatal(err)
		}
		j := testJob("bad", 600)
		tc.edit(j)
		ended := 0
		submit(sched, j, nil, func(*GridJob) { ended++ })
		eng.RunUntil(sim.Time(sim.Day))
		if st := sched.Stats(); ended != 1 || st.Failed != 1 || st.Completed != 0 || st.SubmitRetries != 0 {
			t.Errorf("%s: ended %d times, stats %+v; want exactly one terminal, a failure, and no retry", tc.name, ended, st)
		}
		if err := j.Job.Validate(); j.Status != StatusFailed || err == nil || j.FailReason != err.Error() {
			t.Errorf("%s: status %v, reason %q; want failed with %v", tc.name, j.Status, j.FailReason, err)
		}
		var fails []string
		hub.Journal.Each(func(ev obs.Event) {
			if ev.Stage == obs.StageFail {
				fails = append(fails, ev.Detail)
			}
		})
		if len(fails) != 1 || fails[0] != j.FailReason {
			t.Errorf("%s: journaled failures %q, want one with the reason %q", tc.name, fails, j.FailReason)
		}
		if n := hpc.Stats().TotalQueued; n != 0 {
			t.Errorf("%s: the cluster queued %d jobs", tc.name, n)
		}
	}
}
