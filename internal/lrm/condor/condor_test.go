package condor

import (
	"fmt"
	"testing"

	"lattice/internal/lrm"
	"lattice/internal/sim"
)

// testPool builds a small pool of identical machines.
func testPool(t *testing.T, n int, speed float64, away, busy sim.Duration) (*sim.Engine, *Pool) {
	t.Helper()
	eng := sim.NewEngine()
	machines := make([]Machine, n)
	for i := range machines {
		machines[i] = Machine{
			Speed: speed, MemoryMB: 2048, Platform: lrm.LinuxX86,
			MeanOwnerAway: away, MeanOwnerBusy: busy,
		}
	}
	p, err := New(eng, sim.NewRNG(1), Config{Name: "pool", Machines: machines})
	if err != nil {
		t.Fatal(err)
	}
	return eng, p
}

// job returns a job costing the given reference-seconds.
func job(id string, refSeconds float64) *lrm.Job {
	return &lrm.Job{ID: id, Work: refSeconds * lrm.ReferenceCellsPerSecond, MemoryMB: 256}
}

func TestShortJobsComplete(t *testing.T) {
	eng, p := testPool(t, 4, 1.0, 8*sim.Hour, 2*sim.Hour)
	done := 0
	for i := 0; i < 20; i++ {
		j := job(fmt.Sprintf("j%d", i), 600) // 10 minutes
		j.OnComplete = func(sim.Time) { done++ }
		j.OnFail = func(_ sim.Time, reason string) { t.Errorf("job failed: %s", reason) }
		if err := p.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(sim.Time(30 * sim.Day))
	if done != 20 {
		t.Fatalf("%d of 20 short jobs completed", done)
	}
	st := p.Stats()
	if st.Completed != 20 {
		t.Errorf("stats.Completed = %d", st.Completed)
	}
	if st.CPUSeconds < 20*600*0.99 {
		t.Errorf("delivered CPU %.0f s, want ≈ %d", st.CPUSeconds, 20*600)
	}
}

func TestLongJobsThrash(t *testing.T) {
	// A 40-hour job on machines whose owners are only away ~3 h at a
	// time can never finish; preemptions and wasted CPU pile up.
	eng, p := testPool(t, 2, 1.0, 3*sim.Hour, 3*sim.Hour)
	failed := false
	completed := false
	j := job("long", 40*3600)
	j.OnComplete = func(sim.Time) { completed = true }
	j.OnFail = func(sim.Time, string) { failed = true }
	p.cfg.MaxRequeues = 20
	if err := p.Submit(j); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(60 * sim.Day))
	if completed {
		t.Fatal("40-hour job completed on a 3-hour-window pool — preemption broken")
	}
	if !failed {
		t.Fatal("job neither completed nor hit the requeue limit")
	}
	st := p.Stats()
	if st.Preemptions < 10 {
		t.Errorf("only %d preemptions", st.Preemptions)
	}
	if st.WastedCPU <= 0 {
		t.Error("no wasted CPU recorded despite thrashing")
	}
}

func TestPreemptionRequeuesAndEventuallyCompletes(t *testing.T) {
	// A 2-hour job with ~4-hour windows: may be preempted but should
	// finish within a few attempts.
	eng, p := testPool(t, 3, 1.0, 4*sim.Hour, 2*sim.Hour)
	done := false
	j := job("medium", 2*3600)
	j.OnComplete = func(sim.Time) { done = true }
	if err := p.Submit(j); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(30 * sim.Day))
	if !done {
		t.Fatal("medium job never completed")
	}
}

func TestSpeedScalesRuntime(t *testing.T) {
	run := func(speed float64) sim.Duration {
		eng := sim.NewEngine()
		p, err := New(eng, sim.NewRNG(1), Config{Name: "p", Machines: []Machine{{
			Speed: speed, MemoryMB: 1024, Platform: lrm.LinuxX86,
			MeanOwnerAway: 1000 * sim.Hour, MeanOwnerBusy: sim.Minute,
		}}})
		if err != nil {
			t.Fatal(err)
		}
		var doneAt sim.Time
		j := job("j", 3600)
		j.OnComplete = func(at sim.Time) { doneAt = at }
		if err := p.Submit(j); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(sim.Time(10 * sim.Day))
		return doneAt.Sub(0)
	}
	t1 := run(1.0)
	t2 := run(2.0)
	if t1 <= 0 || t2 <= 0 {
		t.Fatal("jobs did not complete")
	}
	// The speed-2 machine should finish in roughly half the compute
	// time; allow slack for the initial owner-busy period.
	if !(t2 < t1) {
		t.Errorf("speed 2.0 finished at %v, speed 1.0 at %v", t2, t1)
	}
}

func TestRequirementsFiltering(t *testing.T) {
	eng := sim.NewEngine()
	p, err := New(eng, sim.NewRNG(2), Config{Name: "p", Software: []string{"java"}, Machines: []Machine{
		{Speed: 1, MemoryMB: 512, Platform: lrm.WindowsX86, MeanOwnerAway: 100 * sim.Hour, MeanOwnerBusy: sim.Minute},
		{Speed: 1, MemoryMB: 8192, Platform: lrm.LinuxX86, MeanOwnerAway: 100 * sim.Hour, MeanOwnerBusy: sim.Minute},
	}})
	if err != nil {
		t.Fatal(err)
	}
	bigMem := job("big", 60)
	bigMem.MemoryMB = 4096
	bigMem.Platforms = []lrm.Platform{lrm.LinuxX86}
	bigMem.Software = []string{"java"}
	done := false
	bigMem.OnComplete = func(sim.Time) { done = true }
	if err := p.Submit(bigMem); err != nil {
		t.Fatal(err)
	}
	noSoft := job("nosoft", 60)
	noSoft.Software = []string{"fortran-runtime"}
	stuck := false
	noSoft.OnComplete = func(sim.Time) { stuck = true }
	if err := p.Submit(noSoft); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(2 * sim.Day))
	if !done {
		t.Error("big-memory linux job did not run on the matching machine")
	}
	if stuck {
		t.Error("job with unavailable software dependency ran anyway")
	}
	if p.Info().QueuedJobs != 1 {
		t.Errorf("queue should hold the unsatisfiable job, has %d", p.Info().QueuedJobs)
	}
}

func TestMPIRejected(t *testing.T) {
	_, p := testPool(t, 1, 1, sim.Hour, sim.Hour)
	j := job("mpi", 60)
	j.NeedsMPI = true
	if err := p.Submit(j); err == nil {
		t.Error("Condor pool accepted an MPI job")
	}
}

func TestCancel(t *testing.T) {
	eng, p := testPool(t, 1, 1.0, 100*sim.Hour, sim.Minute)
	j := job("c1", 3600)
	completed := false
	j.OnComplete = func(sim.Time) { completed = true }
	if err := p.Submit(j); err != nil {
		t.Fatal(err)
	}
	// Let it start, then cancel mid-run.
	eng.RunUntil(sim.Time(10 * sim.Minute))
	if !p.Cancel("c1") {
		t.Fatal("running job not found for cancel")
	}
	if p.Cancel("c1") {
		t.Error("double cancel returned true")
	}
	eng.RunUntil(sim.Time(1 * sim.Day))
	if completed {
		t.Error("cancelled job completed")
	}
	if p.Cancel("never-submitted") {
		t.Error("cancel of unknown job returned true")
	}
}

func TestWallLimit(t *testing.T) {
	eng, p := testPool(t, 1, 1.0, 1000*sim.Hour, sim.Minute)
	j := job("w", 7200)
	j.WallLimit = sim.Hour
	var failReason string
	j.OnFail = func(_ sim.Time, r string) { failReason = r }
	if err := p.Submit(j); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(1 * sim.Day))
	if failReason == "" {
		t.Fatal("wall limit never fired")
	}
}

func TestInfoSnapshot(t *testing.T) {
	eng, p := testPool(t, 5, 1.0, 10*sim.Hour, 10*sim.Hour)
	eng.RunUntil(sim.Time(2 * sim.Day))
	info := p.Info()
	if info.TotalCPUs != 5 {
		t.Errorf("TotalCPUs = %d", info.TotalCPUs)
	}
	if info.Kind != "condor" || info.Stable {
		t.Errorf("info misdescribes the pool: %+v", info)
	}
	if info.FreeCPUs < 0 || info.FreeCPUs > 5 {
		t.Errorf("FreeCPUs = %d", info.FreeCPUs)
	}
	if info.NodeMemoryMB != 2048 {
		t.Errorf("NodeMemoryMB = %d", info.NodeMemoryMB)
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := New(eng, sim.NewRNG(1), Config{Name: "", Machines: []Machine{{Speed: 1}}}); err == nil {
		t.Error("expected error for empty name")
	}
	if _, err := New(eng, sim.NewRNG(1), Config{Name: "x"}); err == nil {
		t.Error("expected error for no machines")
	}
	if _, err := New(eng, sim.NewRNG(1), Config{Name: "x", Machines: []Machine{{Speed: 0}}}); err == nil {
		t.Error("expected error for zero speed")
	}
}
