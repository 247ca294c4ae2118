package dag

import (
	"fmt"
	"sort"

	"lattice/internal/obs"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// Runner executes one ready stage as a grid batch. The production
// implementation is gsbl.Service: the stage submission goes through
// the same validate→expand→place path as any portal batch, and done
// fires exactly once when every grid job of the batch is terminal.
// The returned batch ID links the stage to its journal/trace context.
type Runner interface {
	RunStage(runID, stageID string, sub workload.Submission, done func(completed, failed int)) (batchID string, err error)
}

// Durability is the write-ahead-log hook for workflows entering the
// engine. Like gsbl's submission hook, it records the workflow after
// validation and before any scheduling side effect: the workflow is
// the only input — stage batches are derived state that deterministic
// re-execution regenerates, so they are deliberately *not* recorded
// as inputs (recording them too would double-inject on replay).
type Durability interface {
	Workflow(at sim.Time, wf workload.Workflow)
}

// stageRetries is how many times a stage with failed jobs is
// resubmitted (with a fresh derived seed) before it is declared failed
// and its downstream subtree skipped.
const stageRetries = 1

// Config wires the engine into a deployment.
type Config struct {
	// IDPrefix qualifies run IDs ("shard0-wf-000001") so a cluster
	// front router can attribute a workflow to its coordinator shard.
	// Empty for single-coordinator deployments.
	IDPrefix string
	// Durable is the write-ahead-log hook; nil disables it.
	Durable Durability
}

// StageState is a workflow stage's lifecycle state.
type StageState string

const (
	// StageWaiting: at least one dependency is not done.
	StageWaiting StageState = "waiting"
	// StageRunning: submitted as a grid batch, jobs in flight.
	StageRunning StageState = "running"
	// StageDone: every job of the stage batch completed.
	StageDone StageState = "done"
	// StageFailed: jobs failed and retries are exhausted.
	StageFailed StageState = "failed"
	// StageSkipped: an upstream stage failed; this one never ran.
	StageSkipped StageState = "skipped"
)

// Run states.
const (
	RunRunning  = "running"
	RunComplete = "complete"
	RunFailed   = "failed"
)

// StageRun is the live state of one stage within a run.
type StageRun struct {
	Stage workload.WorkflowStage
	State StageState
	// Attempts counts batch submissions of this stage (monotonic
	// across retries and reruns; each attempt derives a fresh seed).
	Attempts  int
	BatchID   string
	Completed int
	Failed    int
	StartedAt sim.Time
	DoneAt    sim.Time
}

// Run is one submitted workflow instance.
type Run struct {
	ID       string
	Workflow workload.Workflow
	// Order is the deterministic topological stage order every engine
	// iteration follows.
	Order       []string
	State       string
	SubmittedAt sim.Time
	DoneAt      sim.Time

	stages   map[string]*StageRun
	children map[string][]string
}

// StageStatus is the JSON view of one stage the portal serves.
type StageStatus struct {
	ID        string     `json:"id"`
	State     StageState `json:"state"`
	Attempts  int        `json:"attempts"`
	BatchID   string     `json:"batchId,omitempty"`
	Completed int        `json:"completed"`
	Failed    int        `json:"failed"`
	StartedAt sim.Time   `json:"startedAt"`
	DoneAt    sim.Time   `json:"doneAt"`
}

// RunStatus is the JSON view of a workflow run.
type RunStatus struct {
	ID          string        `json:"id"`
	Name        string        `json:"name"`
	User        string        `json:"user"`
	State       string        `json:"state"`
	SubmittedAt sim.Time      `json:"submittedAt"`
	DoneAt      sim.Time      `json:"doneAt"`
	Stages      []StageStatus `json:"stages"`
}

// Engine schedules workflow runs by readiness. It is single-threaded
// like the rest of the coordinator: all methods run on the simulation
// goroutine (the portal serializes its HTTP access under its own
// mutex, exactly as it does for the service layer).
type Engine struct {
	eng    *sim.Engine
	runner Runner
	o      *obs.Obs
	cfg    Config
	runs   map[string]*Run
	nextID int
}

// NewEngine wires a workflow engine onto a stage runner.
func NewEngine(eng *sim.Engine, runner Runner, o *obs.Obs, cfg Config) *Engine {
	return &Engine{
		eng:    eng,
		runner: runner,
		o:      o,
		cfg:    cfg,
		runs:   make(map[string]*Run),
	}
}

// Submit validates a workflow and starts its root stages. The
// workflow is recorded as a durable input before any side effect, so
// recovery re-injects it and re-execution regenerates every stage
// transition.
func (e *Engine) Submit(wf workload.Workflow) (*Run, error) {
	order, err := Validate(&wf)
	if err != nil {
		return nil, err
	}
	if e.cfg.Durable != nil {
		e.cfg.Durable.Workflow(e.eng.Now(), wf)
	}
	e.nextID++
	r := &Run{
		ID:          fmt.Sprintf("%swf-%06d", e.cfg.IDPrefix, e.nextID),
		Workflow:    wf,
		Order:       order,
		State:       RunRunning,
		SubmittedAt: e.eng.Now(),
		stages:      make(map[string]*StageRun, len(wf.Stages)),
		children:    make(map[string][]string, len(wf.Stages)),
	}
	for i := range wf.Stages {
		st := wf.Stages[i]
		r.stages[st.ID] = &StageRun{Stage: st, State: StageWaiting}
		for _, dep := range st.After {
			r.children[dep] = append(r.children[dep], st.ID)
		}
	}
	e.runs[r.ID] = r
	e.o.Record(r.ID, "", obs.StageWfSubmit, "",
		fmt.Sprintf("workflow %s: %d stages for %s", wf.Name, len(wf.Stages), wf.UserEmail))
	e.launchReady(r)
	return r, nil
}

// Runs lists run IDs in submission order.
func (e *Engine) Runs() []string {
	ids := make([]string, 0, len(e.runs))
	for id := range e.runs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Status reports a run's per-stage state in topological order.
func (e *Engine) Status(id string) (RunStatus, error) {
	r, ok := e.runs[id]
	if !ok {
		return RunStatus{}, fmt.Errorf("dag: unknown workflow run %s", id)
	}
	st := RunStatus{
		ID: r.ID, Name: r.Workflow.Name, User: r.Workflow.UserEmail,
		State: r.State, SubmittedAt: r.SubmittedAt, DoneAt: r.DoneAt,
	}
	for _, sid := range r.Order {
		sr := r.stages[sid]
		st.Stages = append(st.Stages, StageStatus{
			ID: sid, State: sr.State, Attempts: sr.Attempts, BatchID: sr.BatchID,
			Completed: sr.Completed, Failed: sr.Failed,
			StartedAt: sr.StartedAt, DoneAt: sr.DoneAt,
		})
	}
	return st, nil
}

// launchReady starts, in topological order, every waiting stage whose
// dependencies are all done.
func (e *Engine) launchReady(r *Run) {
	for _, id := range r.Order {
		sr := r.stages[id]
		if sr.State != StageWaiting || !e.parentsDone(r, sr) {
			continue
		}
		e.o.Record(r.ID, id, obs.StageWfReady, "", "")
		e.start(r, sr)
	}
}

func (e *Engine) parentsDone(r *Run, sr *StageRun) bool {
	for _, dep := range sr.Stage.After {
		if r.stages[dep].State != StageDone {
			return false
		}
	}
	return true
}

// start submits one attempt of a stage as a grid batch. The stage
// seed derives from (workflow seed, stage ID, attempt), and Short
// stages are restricted to service-grid resources.
func (e *Engine) start(r *Run, sr *StageRun) {
	sr.State = StageRunning
	sr.Attempts++
	sr.StartedAt = e.eng.Now()
	attempt := sr.Attempts
	sub := workload.Submission{
		Spec:        sr.Stage.Spec,
		Replicates:  sr.Stage.Replicates,
		Bootstrap:   sr.Stage.Bootstrap,
		UserEmail:   r.Workflow.UserEmail,
		ServiceOnly: sr.Stage.Short,
	}
	sub.Spec.Seed = StageSeed(r.Workflow.Seed, sr.Stage.ID, attempt)
	batchID, err := e.runner.RunStage(r.ID, sr.Stage.ID, sub,
		func(completed, failed int) { e.stageDone(r, sr, attempt, completed, failed) })
	if err != nil {
		// A synchronous submit rejection (validation, duplicate IDs) is
		// deterministic — retrying would hit it again, so the stage
		// fails immediately.
		sr.BatchID = ""
		e.failStage(r, sr, fmt.Sprintf("submit rejected: %v", err))
		return
	}
	sr.BatchID = batchID
	e.o.Record(r.ID, sr.Stage.ID, obs.StageWfDispatch, "",
		fmt.Sprintf("batch=%s attempt=%d replicates=%d short=%v",
			batchID, attempt, sr.Stage.Replicates, sr.Stage.Short))
}

// stageDone handles a stage batch reaching its terminal state.
func (e *Engine) stageDone(r *Run, sr *StageRun, attempt, completed, failed int) {
	if sr.State != StageRunning || sr.Attempts != attempt {
		return // a stale batch from before a rerun reset
	}
	sr.Completed, sr.Failed = completed, failed
	if failed == 0 {
		sr.State = StageDone
		sr.DoneAt = e.eng.Now()
		e.o.Record(r.ID, sr.Stage.ID, obs.StageWfStageDone, "",
			fmt.Sprintf("%d completed", completed))
		e.launchReady(r)
		e.finishIfTerminal(r)
		return
	}
	if sr.Attempts <= stageRetries {
		e.o.Record(r.ID, sr.Stage.ID, obs.StageWfRetry, "",
			fmt.Sprintf("%d of %d jobs failed; attempt %d", failed, completed+failed, attempt+1))
		e.start(r, sr)
		return
	}
	e.failStage(r, sr, fmt.Sprintf("%d of %d jobs failed after %d attempts",
		failed, completed+failed, attempt))
}

// failStage marks a stage failed and skips its downstream subtree —
// and only that subtree: independent branches keep running.
func (e *Engine) failStage(r *Run, sr *StageRun, detail string) {
	sr.State = StageFailed
	sr.DoneAt = e.eng.Now()
	e.o.Record(r.ID, sr.Stage.ID, obs.StageWfStageFail, "", detail)
	for _, id := range e.subtree(r, sr.Stage.ID) {
		d := r.stages[id]
		if id == sr.Stage.ID || d.State != StageWaiting {
			continue
		}
		d.State = StageSkipped
		d.DoneAt = e.eng.Now()
		e.o.Record(r.ID, id, obs.StageWfSkip, "",
			fmt.Sprintf("upstream %s failed", sr.Stage.ID))
	}
	e.finishIfTerminal(r)
}

// subtree returns root plus its transitive descendants, in the run's
// topological order.
func (e *Engine) subtree(r *Run, root string) []string {
	in := map[string]bool{root: true}
	// Order is topological, so one forward sweep closes the set.
	for _, id := range r.Order {
		if in[id] {
			for _, c := range r.children[id] {
				in[c] = true
			}
		}
	}
	out := make([]string, 0, len(in))
	for _, id := range r.Order {
		if in[id] {
			out = append(out, id)
		}
	}
	return out
}

// finishIfTerminal closes the run once no stage is waiting or
// running.
func (e *Engine) finishIfTerminal(r *Run) {
	if r.State != RunRunning {
		return
	}
	done, failed, skipped := 0, 0, 0
	for _, sr := range r.stages {
		switch sr.State {
		case StageWaiting, StageRunning:
			return
		case StageDone:
			done++
		case StageFailed:
			failed++
		case StageSkipped:
			skipped++
		}
	}
	r.DoneAt = e.eng.Now()
	if failed == 0 && skipped == 0 {
		r.State = RunComplete
		e.o.Record(r.ID, "", obs.StageWfComplete, "", fmt.Sprintf("%d stages", done))
		return
	}
	r.State = RunFailed
	e.o.Record(r.ID, "", obs.StageWfFail, "",
		fmt.Sprintf("%d done, %d failed, %d skipped", done, failed, skipped))
}

// Rerun resets a stage and its transitive descendants — the dirty
// subtree — back to waiting and re-executes them; stages outside the
// subtree keep their finished results untouched. The target stage
// must be terminal and nothing in its subtree may be in flight.
//
// Rerun is an operator action, not a recorded WAL input: a workflow
// rerun after a crash must be re-issued by the operator, the same way
// a cancelled batch must be resubmitted.
//
//lint:allow deadexport -- the operator half of the workflow lifecycle (README "Workflows"): nothing in the simulation reruns a stage, an operator does
func (e *Engine) Rerun(runID, stageID string) error {
	r, ok := e.runs[runID]
	if !ok {
		return fmt.Errorf("dag: unknown workflow run %s", runID)
	}
	if _, ok := r.stages[stageID]; !ok {
		return fmt.Errorf("dag: run %s has no stage %s", runID, stageID)
	}
	subtree := e.subtree(r, stageID)
	for _, id := range subtree {
		switch r.stages[id].State {
		case StageRunning:
			return fmt.Errorf("dag: run %s stage %s is still running", runID, id)
		case StageWaiting:
			return fmt.Errorf("dag: run %s stage %s is still waiting", runID, id)
		}
	}
	e.o.Record(r.ID, stageID, obs.StageWfRerun, "",
		fmt.Sprintf("resetting %d stages", len(subtree)))
	for _, id := range subtree {
		sr := r.stages[id]
		sr.State = StageWaiting
		sr.BatchID = ""
		sr.Completed, sr.Failed = 0, 0
		sr.StartedAt, sr.DoneAt = 0, 0
	}
	r.State = RunRunning
	r.DoneAt = 0
	e.launchReady(r)
	return nil
}
