package boinc

import (
	"fmt"
	"reflect"
	"testing"

	"lattice/internal/lrm"
	"lattice/internal/sim"
)

// fullWalkInfo is Server.Info as it stood before the pool summary: one
// pass over every host per call. It is the oracle the counter-backed
// Info must match field for field — placement reads all of them.
func fullWalkInfo(s *Server) lrm.Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := lrm.Info{
		Name:   s.name,
		Kind:   "boinc",
		Stable: false,
	}
	seen := map[lrm.Platform]bool{}
	for _, h := range s.hosts {
		if h.detached {
			continue
		}
		// The pool's deliverable parallelism is the hosts currently
		// on; attached-but-off machines are not capacity right now.
		if h.on {
			info.TotalCPUs++
			if len(h.tasks) == 0 {
				info.FreeCPUs++
			}
		}
		if len(h.tasks) > 0 {
			info.RunningJobs++
		}
		if h.MemoryMB > info.NodeMemoryMB {
			info.NodeMemoryMB = h.MemoryMB
		}
		if !seen[h.Platform] {
			seen[h.Platform] = true
			info.Platforms = append(info.Platforms, h.Platform)
		}
	}
	info.QueuedJobs = len(s.unsent)
	return info
}

func checkInfo(t testing.TB, s *Server, when string) {
	t.Helper()
	if got, want := s.Info(), fullWalkInfo(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\n Info      %+v\n full walk %+v", when, got, want)
	}
}

// churnyProject is a seeded 2000-host volunteer population that
// detaches ten times as readily as the default one, behind one host
// that alone defines the pool's memory ceiling and leads its platform
// list — so losing it changes both.
func churnyProject(t testing.TB) (*sim.Engine, *Server) {
	t.Helper()
	eng := sim.NewEngine()
	s, err := NewServer(eng, sim.NewRNG(7), nil, "volunteers")
	if err != nil {
		t.Fatal(err)
	}
	s.AttachHost(&Host{
		ID: -1, Speed: 1, MemoryMB: 32768, Platform: lrm.DarwinX86,
		MeanOn: 10 * sim.Hour, MeanOff: 14 * sim.Hour, BufferSeconds: 12 * 3600,
	})
	pop := DefaultPopulation(2000)
	pop.PDetach = 0.02
	GeneratePopulation(s, sim.NewRNG(8), pop)
	return eng, s
}

// submitShortDeadlines queues n two-hour workunits whose delay bound
// the population's 14-hour off periods routinely exceed, so deadlines
// pass, workunits are reissued and some run out of issues.
func submitShortDeadlines(t testing.TB, s *Server, prefix string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		j := wu(fmt.Sprintf("%s-%d", prefix, i), 7200)
		j.DelayBound = 9 * sim.Hour
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInfoMatchesFullWalk steps a churning 2000-host project through
// four virtual days and compares Info with the full walk whenever the
// engine has fired anything. The engine is advanced one virtual second
// at a time (whole seconds are exact in sim.Time), so events are checked
// one by one except those sharing a second — mostly the deadlines of
// results issued by one scheduler RPC, which share an instant.
func TestInfoMatchesFullWalk(t *testing.T) {
	eng, s := churnyProject(t)
	checkInfo(t, s, "after attach")
	submitShortDeadlines(t, s, "a", 3000)
	checkInfo(t, s, "after submit")

	const end = 4 * sim.Day
	steps, checks := eng.Steps(), 0
	for now := sim.Time(0); now < sim.Time(end); now += sim.Time(sim.Second) {
		eng.RunUntil(now)
		if eng.Steps() != steps {
			steps = eng.Steps()
			checks++
			checkInfo(t, s, fmt.Sprintf("t=%v step %d", now, steps))
		}
		switch now {
		case sim.Time(18 * sim.Hour):
			// The first host attached is the 32 GB Darwin machine.
			if left := s.Churn(1); left != 1 {
				t.Fatalf("churn detached %d hosts", left)
			}
			checkInfo(t, s, "after losing the pool's largest host")
			if got := s.Info(); got.NodeMemoryMB != 8192 || got.Platforms[0] == lrm.DarwinX86 {
				t.Fatalf("pool still summarizes a detached host: %+v", got)
			}
		case sim.Time(2 * sim.Day):
			s.Churn(300)
			checkInfo(t, s, "after churn burst")
			submitShortDeadlines(t, s, "b", 1500)
			checkInfo(t, s, "after second submit")
		case sim.Time(3 * sim.Day):
			s.AttachHost(&Host{
				ID: 5000, Speed: 2, MemoryMB: 16384, Platform: lrm.LinuxX86,
				MeanOn: sim.Hour, MeanOff: sim.Hour, BufferSeconds: 3600,
			})
			checkInfo(t, s, "after late attach")
			s.Cancel("b-7")
			checkInfo(t, s, "after cancel")
		}
	}
	st := s.ProjectStats()
	if st.Detached < 350 || st.ResultsTimedOut == 0 || st.WorkunitsFailed == 0 || st.WorkunitsDone == 0 {
		t.Errorf("run too tame to exercise the counters: %+v", st)
	}
	// The rest share a second with another event: mostly the deadlines
	// of results one scheduler RPC issued, up to 8 issues a workunit.
	if uint64(checks) < steps*2/3 {
		t.Errorf("only %d checks over %d engine steps", checks, steps)
	}
	t.Logf("%d checks over %d engine steps; %+v", checks, steps, st)
}

// A 2000-host Info answers from the summary: no per-call map, no
// per-call platform list.
func TestInfoDoesNotWalkOrAllocate(t *testing.T) {
	eng, s := churnyProject(t)
	submitShortDeadlines(t, s, "a", 500)
	eng.RunUntil(sim.Time(sim.Day))
	if allocs := testing.AllocsPerRun(100, func() { _ = s.Info() }); allocs > 1 {
		t.Errorf("Info allocates %v times per call", allocs)
	}
}

var infoSink lrm.Info

func BenchmarkServerInfo2000(b *testing.B) {
	eng, s := churnyProject(b)
	submitShortDeadlines(b, s, "a", 500)
	eng.RunUntil(sim.Time(sim.Day))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		infoSink = s.Info()
	}
}
