package experiments

import (
	"fmt"

	"lattice/internal/dag"
	"lattice/internal/faults"
	"lattice/internal/obs"
	"lattice/internal/phylo"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// DagResult is the workflow-engine experiment: the canonical
// four-stage analysis (model-selection → search ∥ bootstrap →
// consensus) submitted as one typed DAG to the default federation. It
// proves what the engine owes the system: readiness ordering (no
// stage batch dispatched before its dependencies finished), placement
// policy (short stages never land on the volunteer pool), job
// conservation across every derived stage batch, and same-seed
// bit-determinism of the whole graph.
type DagResult struct {
	// Stages and Jobs count workflow stages and the grid jobs their
	// batches expanded into.
	Stages int
	Jobs   int
	// RunState is the workflow run's final state ("complete").
	RunState string
	// OrderOK is true when every stage's dispatch journal event came
	// after the stage-done events of all its dependencies.
	OrderOK bool
	// ShortOnService is true when no job of a Short stage was ever
	// placed on a BOINC resource.
	ShortOnService bool
	// Conserved is true when every journaled grid job reached exactly
	// one terminal state.
	Conserved bool
	// DigestsEqual is true when two same-seed runs produced identical
	// journal digests and expositions.
	DigestsEqual bool
	// Digest is the run's final journal digest.
	Digest string
	Rows   [][]string
	// chained and engine are what the workflow engine buys: the same
	// four stages chained by hand, and as the DAG above.
	chained, engine payoff
}

// payoff prices one way of running the analysis: batch makespan and
// mean stage-queue wait (dependencies done → stage submitted).
type payoff struct {
	makespan, wait sim.Duration
}

// dagSubmissionSpec is the fault, crash and workflow experiments' job
// spec: hour-scale searches keep the work in flight long enough for
// every fault window and every kill to land on running jobs.
func dagSubmissionSpec() workload.JobSpec {
	return workload.JobSpec{
		DataType: phylo.Nucleotide, SubstModel: "GTR",
		RateHet: phylo.RateGamma, NumRateCats: 4, GammaShape: 0.5,
		NumTaxa: 48, SeqLength: 2500, SearchReps: 24,
		StartingTree: phylo.StartStepwise, AttachmentsPerTaxon: 30, Seed: 9,
	}
}

// dagWorkflow is the canonical four-stage analysis: 16 search
// replicates and a 150-replicate bootstrap fan-out between two short
// service-grid stages.
func dagWorkflow(seed int64) workload.Workflow {
	return dag.StandardAnalysis("standard-analysis", "workflow@example.edu", seed,
		dagSubmissionSpec(), 16, 150)
}

// dagScenario submits the four-stage workflow to the crashConfig
// federation and runs until the workflow is terminal. Only the
// workflow itself is a durable input: a recovered run regenerates
// every stage batch by re-execution.
func dagScenario(sch func() *faults.Schedule, durable bool) scenario {
	sc := gridScenario(crashConfig, func(r *run) error {
		_, err := r.lats[0].SubmitWorkflow(dagWorkflow(r.seed))
		return err
	}, 90*sim.Day)
	sc.done = func(r *run) bool {
		wfs := r.lats[0].Workflows
		for _, id := range wfs.Runs() {
			if st, err := wfs.Status(id); err != nil || st.State == dag.RunRunning {
				return false
			}
		}
		return true
	}
	return under(sc, sch, durable)
}

// dagStatus is the finished workflow's status.
func dagStatus(o *outcome) (dag.RunStatus, error) {
	wfs := o.lats[0].Workflows
	return wfs.Status(wfs.Runs()[0])
}

// stageQueueWait averages, over the workflow's stages, the time
// between a stage becoming logically ready — its dependencies all done
// (submission time for roots) — and its batch being submitted. The
// engine dispatches dependents at the instant the last dependency's
// batch turns terminal, so for a DAG run this is ~0; the manual
// chaining it replaces pays the user's polling latency here.
func stageQueueWait(st dag.RunStatus, wf workload.Workflow) sim.Duration {
	doneAt := make(map[string]sim.Time, len(st.Stages))
	startAt := make(map[string]sim.Time, len(st.Stages))
	for _, ss := range st.Stages {
		doneAt[ss.ID] = ss.DoneAt
		startAt[ss.ID] = ss.StartedAt
	}
	var sum sim.Duration
	for _, stage := range wf.Stages {
		ready := st.SubmittedAt
		for _, dep := range stage.After {
			ready = max(ready, doneAt[dep])
		}
		sum += startAt[stage.ID].Sub(ready)
	}
	return sum / sim.Duration(len(wf.Stages))
}

// dagOrderOK checks readiness against the journal: a stage's
// wf-dispatch event must come after the wf-stage-done events of every
// dependency.
func dagOrderOK(journal *obs.Journal, st dag.RunStatus, wf workload.Workflow) bool {
	dispatch := make(map[string]int)
	done := make(map[string]int)
	i := -1
	journal.Each(func(ev obs.Event) {
		i++
		if ev.Batch != st.ID {
			return
		}
		switch ev.Stage {
		case obs.StageWfDispatch:
			if _, seen := dispatch[ev.Job]; !seen {
				dispatch[ev.Job] = i
			}
		case obs.StageWfStageDone:
			done[ev.Job] = i
		}
	})
	for _, st := range wf.Stages {
		d, ok := dispatch[st.ID]
		if !ok {
			return false
		}
		for _, dep := range st.After {
			fin, ok := done[dep]
			if !ok || fin > d {
				return false
			}
		}
	}
	return true
}

// dagShortOnService checks placement policy against the journal: no
// place event of a Short stage's batch may name a BOINC resource.
func dagShortOnService(journal *obs.Journal, status dag.RunStatus, wf workload.Workflow, boincNames map[string]bool) bool {
	shortBatch := make(map[string]bool)
	for _, st := range wf.Stages {
		if !st.Short {
			continue
		}
		for _, ss := range status.Stages {
			if ss.ID == st.ID && ss.BatchID != "" {
				shortBatch[ss.BatchID] = true
			}
		}
	}
	if len(shortBatch) == 0 {
		return false
	}
	ok := true
	journal.Each(func(ev obs.Event) {
		if ev.Stage == obs.StagePlace && shortBatch[ev.Batch] && boincNames[ev.Resource] {
			ok = false
		}
	})
	return ok
}

// DagScenario runs the workflow experiment: the four-stage analysis
// twice with the same seed on a calm grid, then once chained by hand.
func DagScenario(seed int64) (*DagResult, error) {
	first, again, err := twin(dagScenario(nil, false), seed)
	if err != nil {
		return nil, err
	}
	chained, err := handChained(seed)
	if err != nil {
		return nil, err
	}
	st, err := dagStatus(first)
	if err != nil {
		return nil, err
	}
	wf := dagWorkflow(seed)
	journal := first.lats[0].Obs.Journal
	boincNames := make(map[string]bool)
	for _, rs := range crashConfig(seed).Resources {
		if rs.Kind == "boinc" {
			boincNames[rs.Name] = true
		}
	}
	r := &DagResult{
		Stages:         len(st.Stages),
		Jobs:           first.m.Jobs,
		RunState:       st.State,
		OrderOK:        dagOrderOK(journal, st, wf),
		ShortOnService: dagShortOnService(journal, st, wf, boincNames),
		Conserved:      first.conserved,
		Digest:         first.digest,
		DigestsEqual:   first.same(again),
		chained:        chained,
		engine:         payoff{first.m.Makespan, stageQueueWait(st, wf)},
	}
	for _, ss := range st.Stages {
		r.Rows = append(r.Rows, []string{
			ss.ID, string(ss.State),
			fmt.Sprintf("%d", ss.Attempts),
			ss.BatchID,
			fmt.Sprintf("%d", ss.Completed),
			fmt.Sprintf("%d", ss.Failed),
			hours(ss.DoneAt.Sub(ss.StartedAt)),
		})
	}
	return r, nil
}

func (r *DagResult) String() string {
	s := fmt.Sprintf("Workflow engine — %d-stage standard analysis as one typed DAG (%d grid jobs)\n",
		r.Stages, r.Jobs)
	s += table([]string{"stage", "state", "attempts", "batch", "completed", "failed", "duration"}, r.Rows)
	s += fmt.Sprintf("run state: %s\n", r.RunState)
	s += fmt.Sprintf("readiness: no stage dispatched before its dependencies finished: %s\n", pass(r.OrderOK))
	s += fmt.Sprintf("placement: short stages never on the volunteer pool: %s\n", pass(r.ShortOnService))
	s += fmt.Sprintf("conservation: every stage job exactly one terminal state: %s\n", pass(r.Conserved))
	s += fmt.Sprintf("determinism: same-seed digests identical: %s\n", pass(r.DigestsEqual))
	s += fmt.Sprintf("payoff: hand-chained %s makespan, %s mean stage-queue wait; DAG %s makespan, %s mean stage-queue wait\n",
		hours(r.chained.makespan), hours(r.chained.wait), hours(r.engine.makespan), hours(r.engine.wait))
	return s
}

// DagCrashResult is the workflow crash experiment: the same four-stage
// DAG with the coordinator killed three times mid-graph and recovered
// from the write-ahead log each time (the first recovery over a torn
// log tail). Only the workflow itself is a WAL input — every stage
// batch is regenerated by deterministic re-execution — so a
// bit-identical final digest proves the whole graph resumed exactly
// where it died.
type DagCrashResult struct {
	Stages int
	Jobs   int
	// Kills is how many scheduled coordinator kills the run survived.
	Kills int
	// Recoveries counts successful resumes from the log (can exceed
	// Kills when a kill's own record is torn off and it fires again).
	Recoveries int
	// TornRecovered is true when the torn log tail was detected and
	// survived.
	TornRecovered bool
	// RunState is the recovered workflow's final state.
	RunState string
	// Conserved is true when every stage job of the crashed run
	// reached exactly one terminal state.
	Conserved bool
	// DigestsEqual is true when the crashed run's digest and
	// exposition match the uninterrupted same-seed run's.
	DigestsEqual bool
	Digest       string
	Rows         [][]string
}

// DagCrashSchedule is the default hostile schedule plus three
// coordinator kills placed inside the workflow's makespan: one during
// the root stage's fan-out, two while the search and bootstrap
// branches are in flight.
func DagCrashSchedule() *faults.Schedule { return killSchedule(4, 9, 14) }

// DagCrashScenario runs the workflow crash experiment: the
// uninterrupted baseline, then the same seed killed at every scheduled
// crash point and recovered from the write-ahead log.
func DagCrashScenario(seed int64) (*DagCrashResult, error) {
	crashed, base, err := twin(dagScenario(DagCrashSchedule, true), seed)
	if err != nil {
		return nil, err
	}
	st, err := dagStatus(crashed)
	if err != nil {
		return nil, err
	}
	return &DagCrashResult{
		Stages:        len(st.Stages),
		Jobs:          crashed.m.Jobs,
		Kills:         len(DagCrashSchedule().CrashAt),
		Recoveries:    crashed.recoveries,
		TornRecovered: crashed.torn,
		RunState:      st.State,
		Conserved:     crashed.conserved,
		Digest:        crashed.digest,
		DigestsEqual:  crashed.same(base),
		Rows: [][]string{
			base.row("uninterrupted", base.recoveries, base.sched.Requeued),
			crashed.row("crashed", crashed.recoveries, crashed.sched.Requeued),
		},
	}, nil
}

func (r *DagCrashResult) String() string {
	s := fmt.Sprintf("Workflow crash recovery — %d-stage DAG, %d coordinator kills mid-graph\n",
		r.Stages, r.Kills)
	s += table([]string{"config", "jobs", "completed", "failed", "makespan", "recoveries", "requeues"}, r.Rows)
	s += fmt.Sprintf("run state: %s\n", r.RunState)
	s += fmt.Sprintf("recoveries: %d (torn log tail survived: %s)\n", r.Recoveries, pass(r.TornRecovered))
	s += fmt.Sprintf("conservation: every stage job exactly one terminal state: %s\n", pass(r.Conserved))
	s += fmt.Sprintf("transparency: crashed digest == uninterrupted digest: %s\n", pass(r.DigestsEqual))
	return s
}

// flatPollInterval is how often the manual-chaining baseline user
// checks whether a finished stage unblocked the next submission — a
// couple of times per working day, which is generous for a human.
const flatPollInterval = 6 * sim.Hour

// handChained runs the four-stage analysis the way the paper's users
// actually chained it: each stage submitted by hand once its
// dependencies' batches are observed done, discovering that by polling
// every flatPollInterval.
func handChained(seed int64) (payoff, error) {
	wf := dagWorkflow(seed)
	batchOf := make(map[string]string, len(wf.Stages))
	var waitSum sim.Duration
	var chainErr error
	// submitReady is the user at the keyboard: it submits every
	// unsubmitted stage whose dependencies' batches are done, charging
	// the gap since the last dependency finished as the stage's queue
	// wait. Stages are declared in topological order, so one sweep per
	// poll suffices. The chain's state lives in this function because
	// the run is never twinned.
	submitReady := func(r *run) error {
		lat := r.lats[0]
		for i := range wf.Stages {
			st := wf.Stages[i]
			if _, ok := batchOf[st.ID]; ok {
				continue
			}
			var ready sim.Time
			blocked := false
			for _, dep := range st.After {
				// An unsubmitted dependency has no batch ID: Status errs.
				bst, err := lat.Service.Status(batchOf[dep])
				if err != nil || !bst.Done {
					blocked = true
					break
				}
				ready = max(ready, bst.DoneAt)
			}
			if blocked {
				continue
			}
			sub := workload.Submission{
				Spec:        st.Spec,
				Replicates:  st.Replicates,
				Bootstrap:   st.Bootstrap,
				UserEmail:   wf.UserEmail,
				ServiceOnly: st.Short,
			}
			sub.Spec.Seed = dag.StageSeed(wf.Seed, st.ID, 1)
			b, err := lat.SubmitSubmission(sub)
			if err != nil {
				return err
			}
			batchOf[st.ID] = b.ID
			waitSum += lat.Engine.Now().Sub(ready)
		}
		return nil
	}
	sc := gridScenario(crashConfig, submitReady, 90*sim.Day)
	sc.step = flatPollInterval
	sc.done = func(r *run) bool {
		chainErr = submitReady(r)
		return chainErr != nil || len(batchOf) == len(wf.Stages) && batchesDone(r)
	}
	o, err := execute(sc, seed)
	if err == nil {
		err = chainErr
	}
	if err != nil {
		return payoff{}, err
	}
	return payoff{o.m.Makespan, waitSum / sim.Duration(len(wf.Stages))}, nil
}
