package experiments

import (
	"fmt"

	"lattice/internal/core"
	"lattice/internal/faults"
	"lattice/internal/metasched"
	"lattice/internal/sim"
)

// CrashResult is the crash-recovery experiment: the fault experiment's
// 200-replicate submission through the default federation, with the
// coordinator process killed three times mid-batch and recovered from
// its write-ahead log each time (the first recovery additionally over
// a torn log tail). It proves the two invariants durability owes the
// system: conservation — every replicate reaches exactly one terminal
// state across all the kills — and transparency — the final journal
// digest is bit-identical to an uninterrupted same-seed run, so
// recovery changed nothing observable.
type CrashResult struct {
	Jobs int
	// Kills is how many scheduled coordinator kills the run survived.
	Kills int
	// Recoveries counts successful core.Recover calls. It can exceed
	// Kills: when a kill's own log record is torn off, the rebuild
	// resumes an instant before the kill and the schedule fires it
	// again.
	Recoveries int
	// TornRecovered is true when the deliberately torn log tail (bytes
	// ripped off the final record before the first recovery) was
	// detected and survived.
	TornRecovered bool
	// Conserved is true when every journaled job of the crashed run
	// reached exactly one terminal state.
	Conserved bool
	// DigestsEqual is true when the crashed-and-recovered run's journal
	// digest and exposition match the uninterrupted same-seed run's.
	DigestsEqual bool
	// Digest is the crashed run's final journal digest.
	Digest  string
	Results map[string]BatchMetrics
	Rows    [][]string
}

// crashConfig is the fault, crash and workflow experiments' federation:
// the standard one, scheduling one grid job per replicate and learning
// resource stability from observed failures.
func crashConfig(seed int64) core.Config {
	sched := metasched.DefaultConfig()
	sched.BundleTargetSeconds = 0
	sched.StabilityAlpha = 0.2
	return standardFederation(sched, 60, 150)(seed)
}

// killSchedule is the default hostile schedule plus a coordinator kill
// at each of the given virtual hours.
func killSchedule(at ...sim.Duration) *faults.Schedule {
	sch := core.DefaultFaultSchedule()
	for _, h := range at {
		sch.CrashAt = append(sch.CrashAt, sim.Time(h*sim.Hour))
	}
	return sch
}

// CrashSchedule is the default hostile schedule plus three coordinator
// kills, all inside the 200-replicate batch's ~21h makespan so each
// one lands on running work.
func CrashSchedule() *faults.Schedule { return killSchedule(5, 11, 16) }

// CrashScenario runs the crash-recovery experiment: the same seed
// killed at every scheduled crash point and recovered from the
// write-ahead log, beside its uninterrupted twin.
func CrashScenario(seed int64) (*CrashResult, error) {
	crashed, base, err := twin(batchScenario("crash@example.edu", CrashSchedule, true), seed)
	if err != nil {
		return nil, err
	}
	return &CrashResult{
		Jobs:          crashed.m.Jobs,
		Kills:         len(CrashSchedule().CrashAt),
		Recoveries:    crashed.recoveries,
		TornRecovered: crashed.torn,
		Conserved:     crashed.conserved,
		DigestsEqual:  crashed.same(base),
		Digest:        crashed.digest,
		Results: map[string]BatchMetrics{
			"uninterrupted": base.m,
			"crashed":       crashed.m,
		},
		Rows: [][]string{
			base.row("uninterrupted", base.recoveries, base.sched.Requeued, base.sched.SubmitRetries),
			crashed.row("crashed", crashed.recoveries, crashed.sched.Requeued, crashed.sched.SubmitRetries),
		},
	}, nil
}

func (r *CrashResult) String() string {
	s := fmt.Sprintf("Crash recovery — one 200-replicate submission, %d coordinator kills mid-batch\n", r.Kills)
	s += table([]string{"config", "jobs", "completed", "failed", "makespan", "recoveries", "requeues", "submit-retries"}, r.Rows)
	s += fmt.Sprintf("recoveries: %d (torn log tail survived: %s)\n", r.Recoveries, pass(r.TornRecovered))
	s += fmt.Sprintf("conservation: every job exactly one terminal state: %s\n", pass(r.Conserved))
	s += fmt.Sprintf("transparency: crashed digest == uninterrupted digest: %s\n", pass(r.DigestsEqual))
	return s
}
