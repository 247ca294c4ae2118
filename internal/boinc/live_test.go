package boinc

import (
	"fmt"
	"slices"
	"testing"

	"lattice/internal/lrm"
	"lattice/internal/sim"
)

// liveSeeds is how many generated sequences TestOneLiveResult plays.
const liveSeeds = 40

// TestOneLiveResult plays generated sequences of submits, cancels and
// host churn on a small project whose short delay bounds make deadlines
// pass, one engine event at a time. After every event it holds the
// server to the one-live-result invariant — every workunit on offer is
// kept by its job ID and has no live result, and every kept workunit is
// on offer or has one — and every result that returned in that event to
// the model: a result returning after its workunit was cancelled, or
// after its own deadline, counts late and reports nothing; any other
// validates its workunit and reports it complete.
func TestOneLiveResult(t *testing.T) {
	var tot liveTally
	for seed := int64(1); seed <= liveSeeds; seed++ {
		tot.add(runLive(t, seed))
	}
	t.Logf("%+v", tot)
	if tot.counted == 0 || tot.lateCancelled == 0 || tot.lateDeadline == 0 || tot.missed == 0 ||
		tot.failed == 0 || tot.cancelledLive == 0 || tot.cancelledOnOffer == 0 || tot.lost == 0 {
		t.Errorf("sequences reached too little: %+v", tot)
	}
}

// liveTally counts what the sequences did.
type liveTally struct {
	counted, lateCancelled, lateDeadline, missed, failed int
	cancelledLive, cancelledOnOffer, lost                int
}

func (a *liveTally) add(b liveTally) {
	a.counted += b.counted
	a.lateCancelled += b.lateCancelled
	a.lateDeadline += b.lateDeadline
	a.missed += b.missed
	a.failed += b.failed
	a.cancelledLive += b.cancelledLive
	a.cancelledOnOffer += b.cancelledOnOffer
	a.lost += b.lost
}

// liveJob is one submitted job and its Owner: it counts the reports
// its job gets.
type liveJob struct {
	job       *lrm.Job
	cancelled bool
	reports   int
	// step counts the reports of the event being checked, and last
	// names the job of the latest one.
	step *int
	last **liveJob
}

func (o *liveJob) Complete(*lrm.Job, sim.Time)     { o.report() }
func (o *liveJob) Fail(*lrm.Job, sim.Time, string) { o.report() }

func (o *liveJob) report() {
	o.reports++
	*o.step++
	*o.last = o
}

// issued is the model's record of one issued result: it is on its
// host until the host computes it (then it reports at reportAt), its
// deadline drops it or its host leaves.
type issued struct {
	r        *result
	job      *liveJob
	deadline sim.Time
	reportAt sim.Time
	state    int
}

const (
	onHost = iota
	reporting
	gone
)

// runLive builds a six-host project, plays one sequence of seed on it
// event by event and checks each event.
func runLive(t *testing.T, seed int64) (tally liveTally) {
	t.Helper()
	eng := sim.NewEngine()
	rng := sim.NewRNG(seed)
	s, err := NewServer(eng, sim.NewRNG(seed+1000), nil, "live")
	if err != nil {
		t.Fatal(err)
	}
	hosts := 0
	attach := func() {
		s.AttachHost(&Host{
			ID: hosts, Speed: 0.5 + rng.Float64(), MemoryMB: 2048, Platform: lrm.LinuxX86,
			MeanOn: 6 * sim.Hour, MeanOff: 3 * sim.Hour, BufferSeconds: 4 * 3600,
			ReportLatency: sim.Duration(rng.Uniform(60, 3600)), PDetach: 0.05,
		})
		hosts++
	}
	for range 6 {
		attach()
	}
	var (
		jobs     []*liveJob
		step     int
		last     *liveJob
		owners   = map[*lrm.Job]*liveJob{}
		tracked  []*issued
		byResult = map[*result]*issued{}
	)
	submit := func() {
		o := &liveJob{step: &step, last: &last}
		o.job = &lrm.Job{
			ID:                  fmt.Sprintf("j%d", len(jobs)),
			Work:                (0.5 + 5*rng.Float64()) * 3600 * lrm.ReferenceCellsPerSecond,
			MemoryMB:            256,
			EstimatedRefSeconds: 3600,
			DelayBound:          sim.Duration(2+rng.Intn(20)) * sim.Hour,
			Owner:               o,
		}
		if rng.Intn(10) == 0 {
			o.job.MemoryMB = 4096 // no host has it: on offer until cancelled
		}
		if err := s.Submit(o.job); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, o)
		owners[o.job] = o
	}
	cancel := func() {
		if len(jobs) == 0 {
			return
		}
		o := jobs[rng.Intn(len(jobs))]
		live := !o.cancelled && o.reports == 0
		out := live && s.byJob[o.job.ID].live != nil
		if got := s.Cancel(o.job.ID); got != live {
			t.Errorf("seed %d: Cancel(%s) = %v for a job that is live: %v", seed, o.job.ID, got, live)
		}
		switch {
		case out:
			tally.cancelledLive++
		case live:
			tally.cancelledOnOffer++
		}
		o.cancelled = o.cancelled || live
	}
	churn := func() {
		for range s.Churn(1 + rng.Intn(2)) {
			attach()
		}
	}
	for range 60 {
		at := sim.Time(rng.Float64() * float64(3*sim.Day))
		var op func()
		switch p := rng.Intn(10); {
		case p < 6:
			op = submit
		case p < 9:
			op = cancel
		default:
			op = churn
		}
		eng.ScheduleAt(at, op)
	}

	const horizon = sim.Time(60 * sim.Day)
	prev := s.stats
	for {
		steps := eng.Steps()
		step, last = 0, nil
		eng.RunTo(steps+1, horizon)
		if eng.Steps() == steps {
			break
		}
		now, st := eng.Now(), s.stats
		if err := checkOneLive(s); err != nil {
			t.Fatalf("seed %d, t=%v: %v", seed, now, err)
		}
		// Results issued in this event are on their hosts.
		for _, h := range s.hosts {
			for _, tk := range h.tasks {
				if byResult[tk.res] == nil {
					in := &issued{r: tk.res, job: owners[tk.res.wu.job], deadline: now.Add(tk.res.wu.delay)}
					byResult[tk.res] = in
					tracked = append(tracked, in)
				}
			}
		}
		// Results that left their host in this event.
		for _, in := range tracked {
			if in.state != onHost || slices.ContainsFunc(in.r.host.tasks, func(tk task) bool { return tk.res == in.r }) {
				continue
			}
			switch {
			case in.r.lost:
				in.state = gone
				tally.lost++
			case st.ResultsTimedOut > prev.ResultsTimedOut && in.deadline == now:
				in.state = gone // its deadline dropped it
			default:
				in.state, in.reportAt = reporting, now.Add(in.r.host.ReportLatency)
			}
		}
		reports := step
		if st.ResultsReturned > prev.ResultsReturned {
			var back []*issued
			for _, in := range tracked {
				if in.state == reporting && in.reportAt == now {
					back = append(back, in)
				}
			}
			if len(back) != 1 {
				t.Fatalf("seed %d, t=%v: a result returned, and the model expects %d", seed, now, len(back))
			}
			in := back[0]
			in.state = gone
			late := in.job.cancelled || in.deadline < now
			switch {
			case late && (st.ResultsLate != prev.ResultsLate+1 || st.WorkunitsDone != prev.WorkunitsDone || reports != 0):
				t.Errorf("seed %d, t=%v: %s returned late (cancelled %v, deadline %v) but counted, or reported %d times",
					seed, now, in.job.job.ID, in.job.cancelled, in.deadline, reports)
			case !late && (st.WorkunitsDone != prev.WorkunitsDone+1 || reports != 1 || last != in.job):
				t.Errorf("seed %d, t=%v: %s returned live but did not validate and report once", seed, now, in.job.job.ID)
			case late && in.job.cancelled:
				tally.lateCancelled++
			case late:
				tally.lateDeadline++
			default:
				tally.counted++
			}
			if !late {
				reports-- // the validating result's own report
			}
		}
		// The only other report is an issue-limit failure at a deadline.
		if failed := st.WorkunitsFailed - prev.WorkunitsFailed; reports != failed {
			t.Errorf("seed %d, t=%v: %d reports besides a returning result, %d workunits failed", seed, now, reports, failed)
		}
		tally.missed += st.ResultsTimedOut - prev.ResultsTimedOut
		tally.failed += st.WorkunitsFailed - prev.WorkunitsFailed
		prev = st
	}
	for _, o := range jobs {
		if o.reports > 1 || (o.reports == 1 && o.cancelled) {
			t.Errorf("seed %d: %s got %d reports (cancelled %v)", seed, o.job.ID, o.reports, o.cancelled)
		}
	}
	return tally
}

// checkOneLive checks the one-live-result invariant: every workunit on
// offer is kept by its job ID, once, with no live result, and every
// workunit kept by its job ID is on offer or has a live result.
func checkOneLive(s *Server) error {
	offered := make(map[*workunit]bool, len(s.unsent))
	for _, wu := range s.unsent {
		switch {
		case offered[wu]:
			return fmt.Errorf("%s is on offer twice", wu.job.ID)
		case s.byJob[wu.job.ID] != wu:
			return fmt.Errorf("%s is on offer but not kept by its job ID", wu.job.ID)
		case wu.live != nil:
			return fmt.Errorf("%s is on offer with a live result", wu.job.ID)
		}
		offered[wu] = true
	}
	for id, wu := range s.byJob {
		if wu.live == nil && !offered[wu] {
			return fmt.Errorf("%s is kept but neither on offer nor out on a host", id)
		}
	}
	return nil
}
