package lrm_test

import (
	"fmt"
	"strings"
	"testing"

	"lattice/internal/boinc"
	"lattice/internal/faults"
	"lattice/internal/lrm"
	"lattice/internal/lrm/cluster"
	"lattice/internal/sim"
)

// contractSeeds is how many generated sequences each resource kind runs.
const contractSeeds = 60

// TestReportContract drives every resource an lrm.Owner hears from — a
// PBS, an SGE and a Condor cluster and the BOINC project server —
// through generated sequences of submits, cancels, outages (every live
// job cancelled at once, as the fault wrapper's outage does), owner
// preemptions and host churn, and holds each report to the contract
// the fault wrapper relies on: it names the job it is about, comes at
// most once per accepted job, never for a refused job, never from
// inside Submit and never after a Cancel of its job returned. Owners
// re-enter the resource from inside a report, as the meta-scheduler
// does. On the clusters without owners every job that was neither
// refused nor cancelled ends with exactly one report.
func TestReportContract(t *testing.T) { testReportContract(t, false) }

// TestReportContractThroughFaults plays the same sequences through the
// fault injector's wrapper, with a lost-result and a slow-result window
// open for the whole run: the wrapper stands as the Owner of every job
// it forwards and must keep the contract it relies on, a completion it
// holds back included. Lost results and a resource failing a job
// (Condor's requeue limit, BOINC's issue limit) reach the owner through
// the wrapper as failures.
func TestReportContractThroughFaults(t *testing.T) { testReportContract(t, true) }

func testReportContract(t *testing.T, wrapped bool) {
	for _, kind := range []string{"pbs", "sge", "condor", "boinc"} {
		t.Run(kind, func(t *testing.T) {
			var tot contractTally
			for seed := int64(1); seed <= contractSeeds; seed++ {
				h := runContract(t, kind, seed, wrapped)
				tot.add(h.tally)
			}
			t.Logf("%s: %+v", kind, tot)
			// The sequences must reach every path they claim to cover.
			if tot.completed == 0 || tot.cancelledLive == 0 || tot.refused == 0 || tot.reentered == 0 {
				t.Errorf("%s: sequences reached too little: %+v", kind, tot)
			}
			if (wrapped || kind == "condor" || kind == "boinc") && tot.failed == 0 {
				t.Errorf("%s: no sequence failed a job: %+v", kind, tot)
			}
			if wrapped && (tot.lost == 0 || tot.slow == 0) {
				t.Errorf("%s: the fault windows touched too little: %+v", kind, tot)
			}
		})
	}
}

// contractTally counts what one or more sequences did.
type contractTally struct {
	submitted, refused, cancelledLive, completed, failed, reentered int
	// lost and slow count the completions the fault windows took.
	lost, slow int
}

func (a *contractTally) add(b contractTally) {
	a.submitted += b.submitted
	a.refused += b.refused
	a.cancelledLive += b.cancelledLive
	a.completed += b.completed
	a.failed += b.failed
	a.reentered += b.reentered
	a.lost += b.lost
	a.slow += b.slow
}

// contractHarness is one generated sequence against one resource.
type contractHarness struct {
	t        *testing.T
	rng      *sim.RNG
	res      lrm.LRM
	churn    func(n int) int // nil for a cluster
	jobs     []*recorder
	inSubmit bool
	tally    contractTally
}

// recorder is one job's Owner: it records the reports its job gets and
// checks each against the contract.
type recorder struct {
	h                   *contractHarness
	job                 *lrm.Job
	accepted, cancelled bool
	reports             []string
}

func (r *recorder) Complete(j *lrm.Job, at sim.Time) {
	r.h.tally.completed++
	r.report(j, "completed")
}

func (r *recorder) Fail(j *lrm.Job, at sim.Time, reason string) {
	r.h.tally.failed++
	r.report(j, "failed: "+reason)
}

func (r *recorder) report(j *lrm.Job, what string) {
	h := r.h
	switch {
	case j != r.job:
		h.t.Errorf("%s reported %s for job %p, want its own %p", r.job.ID, what, j, r.job)
	case h.inSubmit:
		h.t.Errorf("%s reported %s from inside Submit", r.job.ID, what)
	case !r.accepted:
		h.t.Errorf("%s reported %s, but Submit refused it", r.job.ID, what)
	case r.cancelled:
		h.t.Errorf("%s reported %s after Cancel returned", r.job.ID, what)
	case len(r.reports) > 0:
		h.t.Errorf("%s reported %s after %v", r.job.ID, what, r.reports)
	}
	r.reports = append(r.reports, what)
	// Re-enter the resource from inside the report, as the
	// meta-scheduler's owner does.
	switch h.rng.Intn(5) {
	case 0:
		h.tally.reentered++
		h.submit()
	case 1:
		h.tally.reentered++
		h.cancelOne()
	}
}

// runContract builds kind's resource, wrapped in a fault injector when
// wrapped is set, plays one sequence of seed on it to the end and
// checks the jobs' reports.
func runContract(t *testing.T, kind string, seed int64, wrapped bool) *contractHarness {
	t.Helper()
	eng := sim.NewEngine()
	h := &contractHarness{t: t, rng: sim.NewRNG(seed)}
	resRNG := sim.NewRNG(seed + 1000)
	switch kind {
	case "boinc":
		s, err := boinc.NewServer(eng, resRNG, nil, "project")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			s.AttachHost(&boinc.Host{
				ID: i, Speed: 0.5 + h.rng.Float64(), MemoryMB: 2048, Platform: []lrm.Platform{lrm.WindowsX86, lrm.LinuxX86}[i%2],
				MeanOn: 6 * sim.Hour, MeanOff: 3 * sim.Hour, BufferSeconds: 4 * 3600,
				ReportLatency: sim.Minute, PDetach: 0.05,
			})
		}
		h.res, h.churn = s, s.Churn
	default:
		nodes := []cluster.NodeClass{
			{Count: 2, Cores: 1, Speed: 1, MemoryMB: 2048},
			{Count: 1, Cores: 1, Speed: 2, MemoryMB: 4096},
		}
		cfg := cluster.Config{Kind: kind, Name: kind, Platform: lrm.LinuxX86, Nodes: nodes}
		switch kind {
		case "sge":
			for i := range nodes {
				nodes[i].Cores = 3
			}
		case "condor":
			for i := range nodes {
				nodes[i].MeanOwnerAway, nodes[i].MeanOwnerBusy = 3*sim.Hour, sim.Hour
			}
			cfg.MaxRequeues = int(seed % 3)
		}
		c, err := cluster.New(eng, resRNG, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h.res = c
	}
	var in *faults.Injector
	if wrapped {
		in = faults.NewInjector(eng, sim.NewRNG(seed+2000), nil)
		h.res = in.Wrap(h.res)
		name := h.res.Name()
		err := in.Apply(faults.Schedule{Events: []faults.Event{
			{Kind: faults.KindLostResult, Resource: name, Duration: 90 * sim.Day, P: 0.2},
			{Kind: faults.KindSlowResult, Resource: name, Duration: 90 * sim.Day, P: 0.5, Delay: 12 * sim.Hour},
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	// The sequence: 40 operations at uniform times over two days.
	for i := 0; i < 40; i++ {
		at := sim.Time(h.rng.Float64() * float64(2*sim.Day))
		eng.ScheduleAt(at, h.step)
	}
	eng.RunUntil(sim.Time(90 * sim.Day))
	if in != nil {
		n := in.Injected()
		h.tally.lost, h.tally.slow = n[faults.KindLostResult], n[faults.KindSlowResult]
	}
	for _, r := range h.jobs {
		if kind != "condor" && kind != "boinc" && r.accepted && !r.cancelled && len(r.reports) != 1 {
			t.Errorf("%s seed %d: %s was accepted and never cancelled but got %v", kind, seed, r.job.ID, r.reports)
		}
	}
	return h
}

// step is one generated operation.
func (h *contractHarness) step() {
	switch p := h.rng.Intn(10); {
	case p < 6:
		h.submit()
	case p < 8:
		h.cancelOne()
	case p < 9:
		h.outage()
	default:
		if h.churn != nil {
			h.churn(1 + h.rng.Intn(2))
		} else {
			h.outage()
		}
	}
}

// submit hands the resource a generated job: mostly a valid one, now
// and then one no node has the memory for or one that is malformed.
func (h *contractHarness) submit() {
	r := &recorder{h: h}
	r.job = &lrm.Job{
		ID:                  fmt.Sprintf("j%d", len(h.jobs)),
		Work:                (0.5 + 6*h.rng.Float64()) * 3600 * lrm.ReferenceCellsPerSecond,
		MemoryMB:            []int{256, 1024, 3000}[h.rng.Intn(3)],
		EstimatedRefSeconds: 3600,
		DelayBound:          sim.Duration(2+h.rng.Intn(10)) * sim.Hour,
		Owner:               r,
	}
	switch h.rng.Intn(12) {
	case 0:
		r.job.Work = 0 // malformed
	case 1:
		r.job.MemoryMB = 1 << 20 // no node has it
	}
	h.jobs = append(h.jobs, r)
	h.tally.submitted++
	h.inSubmit = true
	err := h.res.Submit(r.job)
	h.inSubmit = false
	r.accepted = err == nil
	if !r.accepted {
		h.tally.refused++
	}
}

// cancelOne cancels a job picked from every job submitted so far, live
// or not.
func (h *contractHarness) cancelOne() {
	if len(h.jobs) > 0 {
		h.cancel(h.jobs[h.rng.Intn(len(h.jobs))])
	}
}

// outage cancels every accepted job that has not reported, in
// submission order.
func (h *contractHarness) outage() {
	for _, r := range h.jobs {
		if r.accepted && !r.cancelled && len(r.reports) == 0 {
			h.cancel(r)
		}
	}
}

func (h *contractHarness) cancel(r *recorder) {
	live := r.accepted && !r.cancelled && len(r.reports) == 0
	found := h.res.Cancel(r.job.ID)
	if found != live {
		h.t.Errorf("Cancel(%s) = %v for a job that is live: %v (accepted %v, cancelled %v, reports %s)",
			r.job.ID, found, live, r.accepted, r.cancelled, strings.Join(r.reports, "; "))
	}
	if live {
		h.tally.cancelledLive++
	}
	r.cancelled = r.cancelled || r.accepted
}
