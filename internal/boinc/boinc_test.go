package boinc

import (
	"fmt"
	"testing"

	"lattice/internal/lrm"
	"lattice/internal/obs"
	"lattice/internal/sim"
)

// testProject builds a server with n reliable, always-on-ish hosts.
func testProject(t *testing.T, n int, name string) (*sim.Engine, *Server) {
	t.Helper()
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	s, err := NewServer(eng, rng, nil, name)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s.AttachHost(&Host{
			ID: i, Speed: 1.0, MemoryMB: 4096, Platform: lrm.WindowsX86,
			MeanOn: 20 * sim.Hour, MeanOff: 2 * sim.Hour,
			BufferSeconds: 8 * 3600, ReportLatency: sim.Minute,
		})
	}
	return eng, s
}

// wu returns a job of the given reference-seconds with an accurate
// estimate attached.
func wu(id string, refSeconds float64) *lrm.Job {
	return &lrm.Job{
		ID:                  id,
		Work:                refSeconds * lrm.ReferenceCellsPerSecond,
		MemoryMB:            256,
		EstimatedRefSeconds: refSeconds,
	}
}

func TestBatchCompletes(t *testing.T) {
	eng, s := testProject(t, 20, "test")
	done := 0
	for i := 0; i < 100; i++ {
		j := wu(fmt.Sprintf("j%d", i), 1800)
		j.Owner = &lrm.Callbacks{
			OnComplete: func(sim.Time) { done++ },
			OnFail:     func(_ sim.Time, r string) { t.Errorf("workunit failed: %s", r) },
		}
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(sim.Time(30 * sim.Day))
	if done != 100 {
		t.Fatalf("%d of 100 workunits completed", done)
	}
	st := s.ProjectStats()
	if st.SchedulerRPCs == 0 || st.ResultsIssued < 100 {
		t.Errorf("implausible stats: %+v", st)
	}
}

func TestDetachingHostsTriggerReissue(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(2)
	s, err := NewServer(eng, rng, nil, "churny")
	if err != nil {
		t.Fatal(err)
	}
	// Hosts detach frequently, losing assigned work.
	for i := 0; i < 40; i++ {
		s.AttachHost(&Host{
			ID: i, Speed: 1.0, MemoryMB: 2048, Platform: lrm.WindowsX86,
			MeanOn: 6 * sim.Hour, MeanOff: 6 * sim.Hour,
			BufferSeconds: 4 * 3600, ReportLatency: sim.Minute,
			PDetach: 0.15,
		})
	}
	done := 0
	for i := 0; i < 60; i++ {
		j := wu(fmt.Sprintf("j%d", i), 3600)
		j.DelayBound = 2 * sim.Day
		j.Owner = &lrm.Callbacks{OnComplete: func(sim.Time) { done++ }}
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(sim.Time(60 * sim.Day))
	st := s.ProjectStats()
	if st.Detached == 0 {
		t.Fatal("no hosts detached; churn model broken")
	}
	if st.ResultsTimedOut == 0 {
		t.Fatal("no deadline timeouts despite detaching hosts")
	}
	if done < 55 {
		t.Errorf("only %d of 60 workunits completed despite reissue", done)
	}
}

// TestChurnBurstReissueCompletesQuorum is the fault-injection
// contract: a churn burst detaches every host, the one holding the
// in-flight workunit's only instance included, replacements attach,
// and the unit must still validate via deadline-miss reissue.
func TestChurnBurstReissueCompletesQuorum(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(3)
	hub := obs.New(eng)
	s, err := NewServer(eng, rng, hub, "churnburst")
	if err != nil {
		t.Fatal(err)
	}
	attach := func(id int) {
		s.AttachHost(&Host{
			ID: id, Speed: 1.0, MemoryMB: 4096, Platform: lrm.WindowsX86,
			MeanOn: 200 * sim.Hour, MeanOff: sim.Minute,
			BufferSeconds: 8 * 3600, ReportLatency: sim.Minute,
		})
	}
	attach(0)
	attach(1)
	done := 0
	j := wu("burst", 3600)
	j.DelayBound = 4 * sim.Hour
	j.Owner = &lrm.Callbacks{
		OnComplete: func(sim.Time) { done++ },
		OnFail:     func(_ sim.Time, r string) { t.Errorf("workunit failed: %s", r) },
	}
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	// Mid-computation, both volunteers — the one computing and the idle
	// one — vanish at once; two fresh hosts join shortly after.
	eng.Schedule(30*sim.Minute, func() {
		if n := s.Churn(2); n != 2 {
			t.Errorf("Churn(2) detached %d hosts", n)
		}
		attach(100)
		attach(101)
	})
	eng.RunUntil(sim.Time(10 * sim.Day))
	if done != 1 {
		t.Fatalf("workunit completed %d times, want exactly once via reissue", done)
	}
	st := s.ProjectStats()
	if st.Detached != 2 {
		t.Errorf("Detached = %d, want 2", st.Detached)
	}
	if st.ResultsTimedOut != 1 {
		t.Errorf("ResultsTimedOut = %d, want 1 (the lost instance)", st.ResultsTimedOut)
	}
	if st.ResultsIssued != 2 {
		t.Errorf("ResultsIssued = %d, want 2 (the lost instance and its reissue)", st.ResultsIssued)
	}
	pl := obs.L("project", "churnburst")
	if v := hub.Counter("lattice_boinc_reissues_total", "", pl).Value(); v < 1 {
		t.Errorf("reissue counter = %g, want >= 1", v)
	}
	if v := hub.Counter("lattice_boinc_deadline_misses_total", "", pl).Value(); v != 1 {
		t.Errorf("deadline-miss counter = %g, want 1", v)
	}
	if v := hub.Counter("lattice_boinc_quorum_validations_total", "", pl).Value(); v != 1 {
		t.Errorf("validation counter = %g, want 1", v)
	}
}

// TestReissueAllocatesNothing pins the deadline-miss reissue at 0
// allocations: its journal detail is one of the strings built once in
// reissueDetails, each the bytes the per-reissue Sprintf gave.
func TestReissueAllocatesNothing(t *testing.T) {
	for i, d := range reissueDetails {
		if want := fmt.Sprintf("deadline passed, issue %d/%d", i, maxIssues); d != want {
			t.Fatalf("reissueDetails[%d] = %q, want %q", i, d, want)
		}
	}
	eng := sim.NewEngine()
	hub := obs.New(eng)
	s, err := NewServer(eng, sim.NewRNG(1), hub, "reissue")
	if err != nil {
		t.Fatal(err)
	}
	h := &Host{ID: 0, Speed: 1.0, MemoryMB: 4096, Platform: lrm.WindowsX86, MeanOn: sim.Hour, MeanOff: sim.Hour}
	s.AttachHost(h)
	w := &workunit{job: wu("r", 3600), delay: sim.Hour}
	r := &result{wu: w, host: h, lost: true}
	// One reissue at each issue count below maxIssues, in turn.
	reissue := func() {
		w.issues = w.issues%(maxIssues-1) + 1
		w.live = r
		s.unsent = s.unsent[:0]
		s.mu.Lock()
		failed := s.deadlinePassed(r)
		s.mu.Unlock()
		if failed != nil || len(s.unsent) != 1 {
			t.Fatalf("after %d issues: failed %v, %d unsent, want a reissue", w.issues, failed, len(s.unsent))
		}
	}
	for range maxIssues {
		reissue() // warm the journal's names table with every detail
	}
	if n := testing.AllocsPerRun(1000, reissue); n != 0 {
		t.Errorf("a reissue allocates %v times, want 0", n)
	}
	if got := s.ProjectStats().ResultsTimedOut; got != 1001+maxIssues {
		t.Errorf("ResultsTimedOut = %d, want %d", got, 1001+maxIssues)
	}
}

// TestChurnSkipsDetachedHosts pins Churn's bookkeeping: it only
// detaches live hosts and reports how many actually left.
func TestChurnSkipsDetachedHosts(t *testing.T) {
	eng, s := testProject(t, 3, "small")
	_ = eng
	if n := s.Churn(2); n != 2 {
		t.Fatalf("first Churn(2) = %d, want 2", n)
	}
	if n := s.Churn(5); n != 1 {
		t.Errorf("second Churn(5) = %d, want 1 (only one live host left)", n)
	}
	if n := s.Churn(1); n != 0 {
		t.Errorf("third Churn(1) = %d, want 0", n)
	}
	if st := s.ProjectStats(); st.Detached != 3 {
		t.Errorf("Detached = %d, want 3", st.Detached)
	}
}

func TestTightDeadlineCausesTimeouts(t *testing.T) {
	// Hosts with a 25% duty cycle, a deadline shorter than typical
	// turnaround, and an estimate optimistic enough to get the work
	// past the server's deadline check: expect timeouts and reissues.
	eng := sim.NewEngine()
	rng := sim.NewRNG(3)
	s, err := NewServer(eng, rng, nil, "tight")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.AttachHost(&Host{
			ID: i, Speed: 0.5, MemoryMB: 2048, Platform: lrm.WindowsX86,
			MeanOn: 4 * sim.Hour, MeanOff: 12 * sim.Hour,
			BufferSeconds: 24 * 3600, ReportLatency: sim.Hour,
		})
	}
	for i := 0; i < 20; i++ {
		j := wu(fmt.Sprintf("j%d", i), 4*3600) // 8 h on these hosts
		j.EstimatedRefSeconds = 600            // believed to be 20 min
		j.DelayBound = 6 * sim.Hour            // unrealistic deadline
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(sim.Time(30 * sim.Day))
	st := s.ProjectStats()
	if st.ResultsTimedOut == 0 {
		t.Error("unrealistically tight deadlines produced no timeouts")
	}
}

func TestFeasibilityCheckAvoidsSlowHosts(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(4)
	s, err := NewServer(eng, rng, nil, "feas")
	if err != nil {
		t.Fatal(err)
	}
	// One fast, one very slow host.
	s.AttachHost(&Host{ID: 0, Speed: 2.0, MemoryMB: 2048, Platform: lrm.WindowsX86,
		MeanOn: 100 * sim.Hour, MeanOff: sim.Hour, BufferSeconds: 40 * 3600, ReportLatency: sim.Minute})
	s.AttachHost(&Host{ID: 1, Speed: 0.05, MemoryMB: 2048, Platform: lrm.WindowsX86,
		MeanOn: 100 * sim.Hour, MeanOff: sim.Hour, BufferSeconds: 40 * 3600, ReportLatency: sim.Minute})
	for i := 0; i < 6; i++ {
		j := wu(fmt.Sprintf("j%d", i), 8*3600)
		j.DelayBound = 1 * sim.Day // slow host would need ~7 days
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(sim.Time(20 * sim.Day))
	st := s.ProjectStats()
	if st.InfeasibleSkips == 0 {
		t.Error("feasibility check never skipped the slow host")
	}
	if st.ResultsTimedOut > 2 {
		t.Errorf("%d timeouts despite feasibility checking", st.ResultsTimedOut)
	}
}

func TestWorkRequestSizing(t *testing.T) {
	// With accurate estimates, a host should fetch about its buffer's
	// worth of work per RPC rather than one task at a time.
	eng, s := testProject(t, 1, "sizing")
	for i := 0; i < 32; i++ {
		if err := s.Submit(wu(fmt.Sprintf("j%d", i), 1800)); err != nil { // 0.5 h each
			t.Fatal(err)
		}
	}
	eng.RunUntil(sim.Time(12 * sim.Hour))
	h := s.hosts[0]
	// Buffer 8 h, tasks 0.5 h: the first fetch should have grabbed
	// roughly 16 tasks.
	if got := len(h.tasks); got < 10 {
		t.Errorf("host queue holds %d tasks; estimate-driven fetch should batch ~16", got)
	}
}

func TestCancelWorkunit(t *testing.T) {
	eng, s := testProject(t, 2, "cancel")
	j := wu("c", 36000)
	completed := false
	j.Owner = &lrm.Callbacks{OnComplete: func(sim.Time) { completed = true }}
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	if !s.Cancel("c") {
		t.Fatal("cancel failed")
	}
	if s.Cancel("c") {
		t.Error("double cancel returned true")
	}
	eng.RunUntil(sim.Time(5 * sim.Day))
	if completed {
		t.Error("cancelled workunit completed")
	}
}

// TestFinishedWorkunitsAreForgotten: the server keeps a workunit by its
// job ID only until it validates or fails, and a workunit finishing
// never drops the entry of a newer one for the same job ID.
func TestFinishedWorkunitsAreForgotten(t *testing.T) {
	eng, s := testProject(t, 20, "forget")
	for i := 0; i < 100; i++ {
		if err := s.Submit(wu(fmt.Sprintf("j%d", i), 1800)); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(sim.Time(30 * sim.Day))
	if st := s.ProjectStats(); st.WorkunitsDone != 100 || len(s.byJob) != 0 {
		t.Fatalf("%d workunits validated, %d still kept by job ID", st.WorkunitsDone, len(s.byJob))
	}

	// Failed for good: every issue misses its deadline.
	eng, s = testProject(t, 4, "forget-failed")
	for i := 0; i < 8; i++ {
		j := wu(fmt.Sprintf("f%d", i), 4*3600)
		j.EstimatedRefSeconds = 600
		j.DelayBound = sim.Hour
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(sim.Time(30 * sim.Day))
	if st := s.ProjectStats(); st.WorkunitsFailed != 8 || len(s.byJob) != 0 {
		t.Fatalf("%d workunits failed, %d still kept by job ID", st.WorkunitsFailed, len(s.byJob))
	}

	// The same job ID resubmitted while its first workunit still runs:
	// the first one validating leaves the second cancellable.
	eng, s = testProject(t, 1, "forget-newer")
	if err := s.Submit(wu("x", 1800)); err != nil {
		t.Fatal(err)
	}
	long := wu("x", 100*3600)
	long.DelayBound = 100 * sim.Day
	if err := s.Submit(long); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(sim.Day))
	if st := s.ProjectStats(); st.WorkunitsDone != 1 {
		t.Fatalf("fixture: %d workunits validated after a day, want the short one", st.WorkunitsDone)
	}
	if !s.Cancel("x") {
		t.Error("the newer workunit for x was forgotten when the older one validated")
	}
}

func TestServerValidation(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	if _, err := NewServer(eng, rng, nil, ""); err == nil {
		t.Error("expected error for empty name")
	}
	if _, err := NewServer(eng, rng, nil, "ok"); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratedPopulation(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(7)
	s, err := NewServer(eng, rng, nil, "pop")
	if err != nil {
		t.Fatal(err)
	}
	GeneratePopulation(s, rng, DefaultPopulation(300))
	if s.NumHosts() != 300 {
		t.Fatalf("attached %d hosts", s.NumHosts())
	}
	plats := map[lrm.Platform]int{}
	for _, h := range s.hosts {
		if h.Speed <= 0 {
			t.Fatal("non-positive host speed")
		}
		plats[h.Platform]++
	}
	if plats[lrm.WindowsX86] < 150 {
		t.Errorf("windows hosts = %d of 300; should dominate", plats[lrm.WindowsX86])
	}
	if len(plats) < 3 {
		t.Errorf("platform diversity missing: %v", plats)
	}
	// The population should actually process work.
	done := 0
	for i := 0; i < 50; i++ {
		j := wu(fmt.Sprintf("j%d", i), 900)
		j.MemoryMB = 512
		j.Owner = &lrm.Callbacks{OnComplete: func(sim.Time) { done++ }}
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(sim.Time(20 * sim.Day))
	if done < 48 {
		t.Errorf("generated population completed only %d of 50", done)
	}
}

func TestInfoAggregation(t *testing.T) {
	eng, s := testProject(t, 25, "info")
	eng.RunUntil(sim.Time(2 * sim.Day))
	info := s.Info()
	if info.Kind != "boinc" || info.Stable {
		t.Errorf("info misdescribes BOINC: %+v", info)
	}
	// Capacity counts only hosts that are currently on; with ~91%
	// duty cycle most of the 25 should be.
	if info.TotalCPUs < 10 || info.TotalCPUs > 25 {
		t.Errorf("TotalCPUs = %d, want most of the 25 attached hosts", info.TotalCPUs)
	}
	if s.NumHosts() != 25 {
		t.Errorf("NumHosts = %d", s.NumHosts())
	}
}
