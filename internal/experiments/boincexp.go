package experiments

import (
	"fmt"

	"lattice/internal/boinc"
	"lattice/internal/lrm"
	"lattice/internal/phylo"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// boincBatch runs n jobs drawn from the workload population through a
// standalone BOINC project and reports the project statistics plus
// batch latency. deadlineFor chooses each workunit's delay bound;
// estimateFor chooses the rsc_fpops_est analogue (0 = none).
func boincBatch(seed int64, pop boinc.PopulationConfig, jobs int,
	deadlineFor func(refSeconds float64) sim.Duration,
	estimateFor func(refSeconds float64) float64,
	tweak func(*workload.JobSpec),
	horizon sim.Duration,
) (boinc.Stats, sim.Duration, int, error) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(seed)
	srv, err := boinc.NewServer(eng, rng.Stream("server"), nil, "lattice-boinc")
	if err != nil {
		return boinc.Stats{}, 0, 0, err
	}
	boinc.GeneratePopulation(srv, rng.Stream("pop"), pop)
	gen := workload.NewGenerator(seed + 1)
	done := 0
	var lastDone sim.Time
	for i := 0; i < jobs; i++ {
		spec := gen.Job()
		// Desktop-grid appropriate sizes: hours, not weeks.
		spec.NumTaxa = 10 + spec.NumTaxa%40
		spec.SeqLength = 300 + spec.SeqLength%1500
		if spec.DataType == 2 { // codon stays modest
			spec.SeqLength -= spec.SeqLength % 3
		}
		spec.SearchReps = 1
		if tweak != nil {
			tweak(&spec)
		}
		work := spec.SampleWork(rng.Stream(fmt.Sprintf("w%d", i)))
		ref := workload.ReferenceSeconds(work)
		j := &lrm.Job{
			ID:                  fmt.Sprintf("wu-%04d", i),
			Work:                work,
			MemoryMB:            512,
			EstimatedRefSeconds: estimateFor(ref),
			DelayBound:          deadlineFor(ref),
			Owner: &lrm.Callbacks{OnComplete: func(at sim.Time) {
				done++
				if at > lastDone {
					lastDone = at
				}
			}},
		}
		if err := srv.Submit(j); err != nil {
			return boinc.Stats{}, 0, 0, err
		}
	}
	// Run until the batch drains (or the horizon passes) so idle-host
	// polling after completion does not pollute the RPC accounting. A
	// non-zero horizon caps the run for steady-state measurements.
	end := sim.Time(120 * sim.Day)
	if horizon > 0 {
		end = sim.Time(horizon)
	}
	for done < jobs && eng.Now() < end {
		eng.RunUntil(eng.Now().Add(12 * sim.Hour))
	}
	latency := lastDone.Sub(0)
	return srv.ProjectStats(), latency, done, nil
}

// DeadlineResult is E7: fixed manual deadlines vs estimate-driven.
type DeadlineResult struct {
	Rows [][]string
	// Latency per configuration.
	Fixed, EstimateDriven sim.Duration
	FixedStats, EstStats  boinc.Stats
}

// BoincDeadlines contrasts the pre-integration practice (one manual
// deadline for the whole batch) with per-workunit deadlines of
// slack × the runtime estimate — Section VI-A's second motivation.
func BoincDeadlines(seed int64) (*DeadlineResult, error) {
	const hosts, jobs = 150, 250
	res := &DeadlineResult{}
	// Accurate estimates exist in both runs (the clients need them
	// for fetch sizing); only the deadline policy differs.
	estimator := func(ref float64) float64 { return ref }

	fixedStats, fixedLat, fixedDone, err := boincBatch(seed, boinc.DefaultPopulation(hosts), jobs,
		func(float64) sim.Duration { return 2 * sim.Week }, estimator, nil, 0)
	if err != nil {
		return nil, err
	}
	estStats, estLat, estDone, err := boincBatch(seed, boinc.DefaultPopulation(hosts), jobs,
		func(ref float64) sim.Duration {
			// Turnaround = client-side buffer wait (up to a day of
			// queued tasks at ~40% duty) plus execution at typical
			// volunteer speed (~0.8×) and duty cycle — so allow two
			// days of pipeline plus 6× the reference runtime.
			return 2*sim.Day + sim.Duration(ref*6)
		}, estimator, nil, 0)
	if err != nil {
		return nil, err
	}
	res.Fixed, res.EstimateDriven = fixedLat, estLat
	res.FixedStats, res.EstStats = fixedStats, estStats
	row := func(name string, st boinc.Stats, lat sim.Duration, done int) []string {
		reissue := 0.0
		if st.ResultsIssued > 0 {
			reissue = float64(st.ResultsTimedOut) / float64(st.ResultsIssued)
		}
		return []string{
			name,
			fmt.Sprintf("%d/%d", done, jobs),
			hours(lat),
			fmt.Sprintf("%.1f%%", 100*reissue),
			fmt.Sprintf("%.0f", st.WastedCPUSeconds/3600),
		}
	}
	res.Rows = append(res.Rows,
		row("manual fixed 2-week deadline", fixedStats, fixedLat, fixedDone),
		row("estimate-driven deadline", estStats, estLat, estDone))
	return res, nil
}

func (r *DeadlineResult) String() string {
	return "E7 — BOINC workunit deadlines: manual fixed vs runtime-estimate-driven\n" +
		table([]string{"deadline policy", "completed", "batch latency", "reissue rate", "wasted CPU-h"}, r.Rows)
}

// WorkFetchResult is E8: scheduler-RPC efficiency with and without
// accurate estimates.
type WorkFetchResult struct {
	Rows [][]string
	// RPCsPerResult for each configuration.
	Blind, Informed float64
}

// WorkFetch measures how accurate estimates let clients fetch the
// right amount of work: without them, the server's fallback guess
// makes hosts check in far more (or less) often — Section VI-A's third
// motivation.
func WorkFetch(seed int64) (*WorkFetchResult, error) {
	// A deep backlog of short jobs on a small host pool: fetch sizing
	// dominates scheduler traffic. Short jobs (~10 min) against the
	// server's 4-hour fallback guess: a blind client fetches a few
	// tasks per RPC instead of dozens.
	const hosts, jobs = 20, 30000 // queue never drains within the horizon
	short := func(spec *workload.JobSpec) {
		spec.DataType = phylo.Nucleotide
		spec.SubstModel = "HKY85"
		spec.RateHet = phylo.RateGamma
		spec.NumRateCats = 4
		spec.GammaShape = 0.6
		spec.NumTaxa = 30
		spec.SeqLength = 2000
	}
	res := &WorkFetchResult{}
	// Churn off: host detachment creates reissue tails that would
	// swamp the fetch-sizing signal this experiment isolates.
	pop := boinc.DefaultPopulation(hosts)
	pop.PDetach = 0
	deadline := func(float64) sim.Duration { return 3 * sim.Day }
	// Steady-state measurement over a fixed 10-day horizon.
	blindStats, _, blindDone, err := boincBatch(seed, pop, jobs, deadline,
		func(float64) float64 { return 0 }, short, 10*sim.Day) // no estimate attached
	if err != nil {
		return nil, err
	}
	infStats, _, infDone, err := boincBatch(seed, pop, jobs, deadline,
		func(ref float64) float64 { return ref }, short, 10*sim.Day)
	if err != nil {
		return nil, err
	}
	rpr := func(st boinc.Stats) float64 {
		if st.ResultsReturned == 0 {
			return 0
		}
		return float64(st.SchedulerRPCs) / float64(st.ResultsReturned)
	}
	res.Blind = rpr(blindStats)
	res.Informed = rpr(infStats)
	row := func(name string, st boinc.Stats, done int) []string {
		return []string{
			name,
			fmt.Sprintf("%d", done),
			fmt.Sprintf("%d", st.SchedulerRPCs),
			fmt.Sprintf("%.2f", rpr(st)),
			fmt.Sprintf("%d", st.EmptyRPCs),
		}
	}
	res.Rows = append(res.Rows,
		row("fallback size guess (no estimates)", blindStats, blindDone),
		row("random-forest estimates", infStats, infDone))
	return res, nil
}

func (r *WorkFetchResult) String() string {
	return "E8 — BOINC work-request sizing: scheduler RPCs per returned result\n" +
		table([]string{"configuration", "completed", "scheduler RPCs", "RPCs/result", "empty RPCs"}, r.Rows)
}
