package boinc

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"lattice/internal/lrm"
	"lattice/internal/sim"
)

// TestServerConcurrentStress drives the server the way the grid does,
// under the race detector: the engine dispatches host events on one
// goroutine while submitters, statistics readers and a canceller
// hammer the lrm.LRM surface from others. Completion handlers
// re-enter Submit, pinning the callback-outside-lock contract.
func TestServerConcurrentStress(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(42)
	srv, err := NewServer(eng, rng, nil, "stress")
	if err != nil {
		t.Fatal(err)
	}
	// A stable population (PDetach 0) so every non-cancelled workunit
	// eventually validates.
	for i := 0; i < 24; i++ {
		srv.AttachHost(&Host{
			ID:            i,
			Speed:         0.5 + 0.1*float64(i%8),
			MemoryMB:      4096,
			MeanOn:        20 * sim.Hour,
			MeanOff:       4 * sim.Hour,
			BufferSeconds: 8 * 3600,
			ReportLatency: 10 * sim.Minute,
		})
	}

	const (
		submitters    = 4
		jobsPerWorker = 30
		nJobs         = submitters * jobsPerWorker
	)
	var completed, failed, chained atomic.Int64

	engineDone := make(chan struct{})
	go func() {
		defer close(engineDone)
		eng.RunUntil(sim.Time(2 * sim.Year))
	}()

	var wg sync.WaitGroup
	newJob := func(id string, onComplete func(sim.Time)) *lrm.Job {
		return &lrm.Job{
			ID:                  id,
			Work:                3600 * lrm.ReferenceCellsPerSecond, // one reference hour
			EstimatedRefSeconds: 3600,
			Owner: &lrm.Callbacks{
				OnComplete: onComplete,
				OnFail:     func(sim.Time, string) { failed.Add(1) },
			},
		}
	}
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < jobsPerWorker; i++ {
				id := fmt.Sprintf("job-%d-%d", w, i)
				onComplete := func(sim.Time) { completed.Add(1) }
				if w == 0 {
					// Re-entrant handler: completing one of these
					// submits a follow-up job from inside the engine's
					// completion path.
					chainID := fmt.Sprintf("chain-%d", i)
					onComplete = func(sim.Time) {
						completed.Add(1)
						chain := newJob(chainID, func(sim.Time) { completed.Add(1) })
						if err := srv.Submit(chain); err != nil {
							t.Errorf("chained submit %s: %v", chainID, err)
							return
						}
						chained.Add(1)
					}
				}
				if err := srv.Submit(newJob(id, onComplete)); err != nil {
					t.Errorf("submit %s: %v", id, err)
				}
			}
		}(w)
	}

	// Readers poll every public accessor while the engine runs.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				_ = srv.Info()
				_ = srv.Stats()
				_ = srv.ProjectStats()
				_ = srv.activeHosts()
				_ = srv.NumHosts()
			}
		}()
	}

	// A canceller races completion; only cancels acknowledged with
	// true actually removed a live workunit.
	var cancelled atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for w := 0; w < submitters; w++ {
			for i := 0; i < jobsPerWorker; i += 7 {
				if srv.Cancel(fmt.Sprintf("job-%d-%d", w, i)) {
					cancelled.Add(1)
				}
			}
		}
	}()

	wg.Wait()
	<-engineDone
	// Jobs submitted after the first run crossed its deadline are
	// still queued; drain them.
	eng.RunUntil(sim.Time(4 * sim.Year))

	st := srv.ProjectStats()
	wantCreated := nJobs + int(chained.Load())
	if st.WorkunitsCreated != wantCreated {
		t.Errorf("WorkunitsCreated = %d, want %d", st.WorkunitsCreated, wantCreated)
	}
	if int(completed.Load()) != st.WorkunitsDone {
		t.Errorf("OnComplete fired %d times but WorkunitsDone = %d", completed.Load(), st.WorkunitsDone)
	}
	if int(failed.Load()) != st.WorkunitsFailed {
		t.Errorf("OnFail fired %d times but WorkunitsFailed = %d", failed.Load(), st.WorkunitsFailed)
	}
	accounted := st.WorkunitsDone + st.WorkunitsFailed + int(cancelled.Load())
	if accounted != wantCreated {
		t.Errorf("jobs unaccounted for: done %d + failed %d + cancelled %d = %d, want %d",
			st.WorkunitsDone, st.WorkunitsFailed, cancelled.Load(), accounted, wantCreated)
	}
}

// TestInfoReadersDuringDetach pins the sharing contract of
// Info().Platforms under the race detector: the slice is the server's
// own and is replaced, never rewritten, when an attach or a detach
// changes it, so readers may keep ranging over an old answer while the
// engine goroutine detaches hosts.
func TestInfoReadersDuringDetach(t *testing.T) {
	eng := sim.NewEngine()
	srv, err := NewServer(eng, sim.NewRNG(3), nil, "leaky")
	if err != nil {
		t.Fatal(err)
	}
	platforms := []lrm.Platform{lrm.WindowsX86, lrm.LinuxX86, lrm.DarwinX86}
	for i := 0; i < 300; i++ {
		srv.AttachHost(&Host{
			ID: i, Speed: 1, MemoryMB: 1024 << (i % 4), Platform: platforms[i%7%3],
			MeanOn: 2 * sim.Hour, MeanOff: 2 * sim.Hour,
			BufferSeconds: 3600, ReportLatency: sim.Minute,
			PDetach: 0.2,
		})
	}
	for i := 0; i < 200; i++ {
		if err := srv.Submit(wu(fmt.Sprintf("j%d", i), 1800)); err != nil {
			t.Fatal(err)
		}
	}
	engineDone := make(chan struct{})
	go func() {
		defer close(engineDone)
		eng.RunUntil(sim.Time(10 * sim.Day))
	}()
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-engineDone:
					return
				default:
				}
				info := srv.Info()
				if len(info.Platforms) > len(platforms) || info.FreeCPUs > info.TotalCPUs {
					t.Errorf("implausible pool: %+v", info)
					return
				}
				for _, p := range info.Platforms {
					if p == "" {
						t.Errorf("blank platform in %+v", info)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if srv.activeHosts() != 0 {
		t.Errorf("%d hosts outlived ten days at PDetach 0.2", srv.activeHosts())
	}
	checkInfo(t, srv, "after every host has left")
}
