package experiments

import (
	"fmt"

	"lattice/internal/core"
	"lattice/internal/faults"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// FaultResult is the fault-injection experiment: the same
// 200-replicate submission through the default federation on a calm
// grid and under the default hostile schedule, twice with the same
// seed. It proves the two invariants the resilience layer owes the
// rest of the system — conservation (every job reaches exactly one
// terminal state, faults or not) and determinism (two same-seed
// hostile runs are bit-identical).
type FaultResult struct {
	Jobs int
	// Conserved is true when every journaled job of the hostile run
	// reached exactly one terminal state.
	Conserved bool
	// DigestsEqual is true when the two same-seed hostile runs
	// produced identical journal digests and expositions.
	DigestsEqual bool
	// Digest is the hostile run's journal digest.
	Digest string
	// Injected counts the faults the schedule actually fired, by kind.
	Injected map[faults.Kind]int
	// Results holds the calm ("baseline") and hostile ("faulted")
	// run metrics.
	Results map[string]BatchMetrics
	Rows    [][]string
}

// under puts a flat scenario under sch (nil: a calm grid). A durable
// run dies at every kill sch schedules and resumes from its log, the
// first time over a torn tail.
func under(sc scenario, sch func() *faults.Schedule, durable bool) scenario {
	if sch != nil {
		sc.faults = func(int) *faults.Schedule { return sch() }
	}
	sc.durable, sc.tear = durable, durable
	return sc
}

// batchScenario pushes the fault experiments' workload — 200
// replicates from user, hour-scale jobs that keep the batch in flight
// for days, so every window of a hostile schedule and every kill lands
// on running work — through the crashConfig federation until the batch
// is terminal.
func batchScenario(user string, sch func() *faults.Schedule, durable bool) scenario {
	load := func(r *run) error {
		return r.submit(workload.Submission{Spec: dagSubmissionSpec(), Replicates: 200, Bootstrap: true, UserEmail: user})
	}
	return under(gridScenario(crashConfig, load, 90*sim.Day), sch, durable)
}

// FaultScenario runs the fault-injection experiment: a calm baseline,
// then the default hostile schedule twice with the same seed.
func FaultScenario(seed int64) (*FaultResult, error) {
	base, err := execute(batchScenario("faults@example.edu", nil, false), seed)
	if err != nil {
		return nil, err
	}
	hostile, again, err := twin(batchScenario("faults@example.edu", core.DefaultFaultSchedule, false), seed)
	if err != nil {
		return nil, err
	}
	return &FaultResult{
		Jobs:         hostile.m.Jobs,
		Conserved:    hostile.conserved,
		DigestsEqual: hostile.same(again),
		Digest:       hostile.digest,
		Injected:     hostile.injected,
		Results: map[string]BatchMetrics{
			"baseline": base.m,
			"faulted":  hostile.m,
		},
		Rows: [][]string{
			base.row("baseline", base.sched.Requeued, base.sched.SubmitRetries, base.sched.Retries),
			hostile.row("faulted", hostile.sched.Requeued, hostile.sched.SubmitRetries, hostile.sched.Retries),
		},
	}, nil
}

func (r *FaultResult) String() string {
	s := "Fault injection — one 200-replicate submission, calm vs hostile schedule\n"
	s += table([]string{"config", "jobs", "completed", "failed", "makespan", "requeues", "submit-retries", "retries"}, r.Rows)
	s += "injected:"
	for _, k := range []faults.Kind{
		faults.KindOutage, faults.KindSubmitFail, faults.KindMDSDrop, faults.KindMDSStale,
		faults.KindChurn, faults.KindSlowResult, faults.KindLostResult,
	} {
		if n := r.Injected[k]; n > 0 {
			s += fmt.Sprintf(" %s=%d", k, n)
		}
	}
	s += "\n"
	s += fmt.Sprintf("conservation: every job exactly one terminal state: %s\n", pass(r.Conserved))
	s += fmt.Sprintf("determinism: same-seed hostile digests identical: %s\n", pass(r.DigestsEqual))
	return s
}

func pass(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAIL"
}
