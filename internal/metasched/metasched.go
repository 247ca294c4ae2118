// Package metasched implements the grid-level scheduler of Section V:
// it watches resource state through MDS, filters resources by job
// requirements (memory only: a grid job is one serial GARLI replicate,
// which runs on every platform the grid offers and needs no MPI and no
// other software), ranks the
// eligible ones by current load, measured speed, and stability, gates
// long jobs off unstable resources using a priori runtime estimates,
// bundles very short jobs to amortize per-job overhead, and computes
// BOINC workunit deadlines from the estimates.
//
// The operating point is the paper's and is not configurable
// (PAPER.md §1): unstable resources take only jobs whose speed-scaled
// estimate is under n = 10 hours (unstableMaxEstimate; item 2, item
// 4a); a BOINC deadline is 3× the speed-scaled estimate
// (boincDeadlineSlack; item 4b); jobs estimated under 300 s are "very
// short" and bundled to amortize 30 s of per-job grid overhead
// (minJobSeconds, PerJobOverheadSeconds; item 4c). The rest are this
// reproduction's fixed choices where the paper states none: 50 MB/s
// staging (stageBandwidthMBps), a backlog of at most 2× a resource's
// CPUs (maxBacklogFactor), 5 reschedules per job (retryLimit), submit
// retries at 30 s·2^k up to 30 min (submitRetryBase, submitRetryMax),
// learned stability under 0.5 gated as unstable (stabilityFloor) and a
// 10-minute breaker cooldown (breakerCooldown).
package metasched

import (
	"fmt"

	"lattice/internal/grid/mds"
	"lattice/internal/lrm"
	"lattice/internal/obs"
	"lattice/internal/sim"
	"lattice/internal/slab"
	"lattice/internal/workload"
)

// Policy selects how much of the paper's ranking machinery is active —
// the experiment knob for E4/E5.
type Policy int

const (
	// PolicyNaive spreads load evenly, ignoring speed and stability
	// ("such a naïve algorithm does not use resources very
	// efficiently").
	PolicyNaive Policy = iota
	// PolicySpeedAware adds measured resource speed to the ranking.
	PolicySpeedAware
	// PolicyFull adds the stability criterion: jobs estimated longer
	// than the threshold never go to unstable resources.
	PolicyFull
)

func (p Policy) String() string {
	switch p {
	case PolicyNaive:
		return "naive"
	case PolicySpeedAware:
		return "speed-aware"
	case PolicyFull:
		return "full"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Predictor supplies a priori runtime estimates on the reference
// computer; estimate.Estimator satisfies it. The spec is lent for the
// call only: the scheduler reuses it for the next job, so Predict must
// not keep the pointer.
type Predictor interface {
	Predict(spec *workload.JobSpec) (float64, error)
}

// Config holds scheduler policy: the five values some experiment or
// deployment varies. Everything else about the operating point is a
// constant below.
type Config struct {
	Policy Policy
	// BundleTargetSeconds: when a job's estimate is below
	// minJobSeconds, replicates are merged until the bundle reaches
	// this target ("ratchet up the number of search replicates").
	// 0 disables bundling.
	BundleTargetSeconds float64
	// RescanInterval is how often pending (unplaceable) jobs are
	// retried against the current MDS view.
	RescanInterval sim.Duration
	// StabilityAlpha enables the learned per-resource stability score:
	// every observed completion (1) or resource-level failure (0)
	// feeds an EWMA with this weight, and the score replaces static
	// config in both the gating rule and the completion-time ranking.
	// 0 disables learning and preserves the static Info.Stable
	// behaviour exactly.
	StabilityAlpha float64
	// BreakerThreshold enables per-resource circuit breakers: this
	// many consecutive failures (gatekeeper submit refusals,
	// resource-level job failures, death requeues) with no
	// intervening success trips the resource's circuit open — it
	// stops receiving work for breakerCooldown, then admits a single
	// half-open probe whose outcome closes or re-opens the circuit.
	// Layered on the stability EWMA: the EWMA softly deprioritizes a
	// degrading resource, the breaker hard-stops a flapping one from
	// eating retry budget. 0 disables breakers entirely.
	BreakerThreshold int
}

// The operating point (see the package comment). No caller ever ran
// the scheduler anywhere else, so these are not options.
const (
	// unstableMaxEstimate is the paper's n = 10 hours: unstable
	// resources get no job whose speed-scaled estimate is longer.
	unstableMaxEstimate = 10 * sim.Hour
	// boincDeadlineSlack multiplies the speed-scaled estimate to set a
	// BOINC workunit deadline.
	boincDeadlineSlack = 3.0
	// PerJobOverheadSeconds is the fixed grid overhead (staging,
	// submission, result handling) added to every job — what replicate
	// bundling amortizes.
	PerJobOverheadSeconds = 30.0
	// minJobSeconds is the estimate below which a job is "very short"
	// and its replicates are bundled.
	minJobSeconds = 300.0
	// retryLimit bounds rescheduling attempts after resource-level
	// failures.
	retryLimit = 5
	// stageBandwidthMBps models the data-placement link between the
	// grid node and each resource: a job waits InputMB / bandwidth
	// before its local submission, and its results take outputMB /
	// bandwidth to come back.
	stageBandwidthMBps = 50.0
	// outputMB is every job's result files: trees and logs.
	outputMB = 0.5
	// maxBacklogFactor caps how many of this scheduler's jobs may be
	// outstanding on one resource, as a multiple of its CPU count.
	// Beyond the cap, jobs wait in the grid-level pending queue and
	// flow to whichever resource drains first — "the grid system breaks
	// these up into smaller batches and may schedule each of these
	// batches to a different grid computing resource".
	maxBacklogFactor = 2.0
	// submitRetryBase is the backoff before a job whose gatekeeper
	// submission failed is retried; each further failure doubles it,
	// capped at submitRetryMax.
	submitRetryBase = 30 * sim.Second
	submitRetryMax  = 30 * sim.Minute
	// stabilityFloor is the learned-stability value below which a
	// resource is gated as unstable even when its static Info.Stable
	// flag says otherwise. Only meaningful with StabilityAlpha > 0.
	stabilityFloor = 0.5
	// breakerCooldown is how long a tripped circuit stays open before
	// the half-open probe.
	breakerCooldown = 10 * sim.Minute
)

// DefaultConfig mirrors the paper's operating point.
func DefaultConfig() Config {
	return Config{
		Policy:              PolicyFull,
		BundleTargetSeconds: 1800,
		RescanInterval:      2 * sim.Minute,
	}
}

// JobStatus tracks a grid job through its lifecycle.
type JobStatus uint8

const (
	StatusPending JobStatus = iota
	StatusRunning
	StatusCompleted
	StatusFailed
)

func (s JobStatus) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusRunning:
		return "running"
	case StatusCompleted:
		return "completed"
	case StatusFailed:
		return "failed"
	default:
		return fmt.Sprintf("JobStatus(%d)", int(s))
	}
}

// GridJob is the scheduler's record of one job: the generic,
// resource-independent description the paper's jobs travel as, plus
// where the job is in its lifecycle. Each fact is stored once. The
// description — ID, Batch, Work, the memory requirement and the
// estimate — is the embedded lrm.Job, which the first dispatch hands to
// its resource as it stands; every later dispatch hands over a copy of
// its own (see dispatch). Only the description fields are the caller's:
// dispatch owns Job.Owner and Job.DelayBound.
type GridJob struct {
	// Job is the job's description and the first dispatch's lrm.Job:
	// that dispatch sets its Owner (the first attempt) and DelayBound,
	// and nothing writes the rest once the job is submitted. Work
	// includes the per-job grid overhead once submitted. MemoryMB is
	// the matchmaking requirement. EstimatedRefSeconds is the
	// prediction used for placement (0 when no model was available).
	lrm.Job

	// Owner, when set, is told once, when the job reaches a terminal
	// status (completed or failed). It shadows the embedded Job.Owner,
	// which is the resource's view of the same job.
	Owner Owner

	// InputMB sizes the job's input staging, the sequence matrix ("data
	// placement" is a grid-level function in the paper's Section IV);
	// every job's results stage back as outputMB.
	InputMB float64

	SubmittedAt sim.Time
	StartedAt   sim.Time
	CompletedAt sim.Time
	FailReason  string

	// disruptedAt is the first moment the job hit a fault-induced
	// setback (death requeue, gatekeeper failure, a "faults:" resource
	// failure), feeding the recovery latency histogram when the job
	// finally completes; disrupted marks that it has.
	disruptedAt sim.Time

	// cur is the job's current dispatch while it runs, and first,
	// holding the last dispatch's resource, once it has ended (see end);
	// nil while it waits for a placement.
	cur *attempt
	// first is the record of the job's first dispatch (see dispatch),
	// carried inline so that a job placed once costs no record apart.
	first attempt

	// SearchReps is the search replicates the job runs: its
	// submission's per-job count times the replicates bundled into it.
	SearchReps int
	// Attempts counts the job's dispatches.
	Attempts int32
	// slot is the job's index in its resource's running list while it
	// is there.
	slot   int32
	Status JobStatus
	// ServiceOnly excludes desktop-grid (BOINC) resources from
	// placement: set for short workflow stages, where volunteer-pool
	// turnaround latency would dominate.
	ServiceOnly bool
	disrupted   bool
}

// Resource names the resource the job is placed on, or ended on; ""
// while it waits for a placement.
func (j *GridJob) Resource() string {
	if j.cur == nil {
		return ""
	}
	return j.cur.res.name
}

// Owner is whoever submitted a grid job and is told when it ends; a
// *gsbl.Batch is the owner of each of its jobs.
type Owner interface {
	JobDone(j *GridJob)
}

// Stats aggregates scheduler behaviour.
type Stats struct {
	Submitted     int
	Completed     int
	Failed        int
	Retries       int
	Bundled       int // jobs merged away by replicate bundling
	UnplaceableAt int // scheduling passes that left jobs pending
	Requeued      int // in-flight jobs requeued after resource death
	SubmitRetries int // gatekeeper submit failures sent to backoff
	BreakerTrips  int // circuit breakers tripped open
}

// resource is a registered target.
type resource struct {
	s     *Scheduler
	name  string
	lrm   lrm.LRM
	speed float64
	// running holds this scheduler's jobs dispatched to the resource
	// and not yet terminal, in no order; its length is the scheduler's
	// own view of the load it has created, which is fresher than the
	// MDS entry (whose refresh lags by the provider period). Without
	// it, a burst of arrivals all sees the same stale "free" snapshot
	// and lands on one resource.
	running []*GridJob
	// stability is the learned reliability score in [0,1], an EWMA of
	// observed per-job outcomes (1 = never seen to fail). It only
	// moves, and only matters, when Config.StabilityAlpha > 0.
	stability float64
	// Circuit-breaker state (see breaker.go); inert unless
	// Config.BreakerThreshold > 0.
	breakerFails int      // consecutive failures while closed
	breakerOpen  bool     // circuit tripped
	breakerUntil sim.Time // end of the open cooldown
	breakerProbe bool     // half-open probe in flight
	// placements is this resource's lattice_sched_placements_total
	// series, resolved on first placement (nil until then) so the
	// series exists only for resources that were actually chosen; it
	// stays nil on a scheduler without an obs hub.
	placements *obs.Counter
	// refusals holds the requeue details of the resource's submit
	// refusals, built once each (see refusalDetail).
	refusals map[refusal]string
}

// refusal keys a refusal's requeue detail: the refusal's text and the
// backoff it sent the job to.
type refusal struct {
	err     string
	backoff sim.Duration
}

// Scheduler is the grid-level scheduler.
type Scheduler struct {
	eng       *sim.Engine
	idx       *mds.Index
	cfg       Config
	predictor Predictor
	resources map[string]*resource
	// order lists the resources in registration order (which core
	// fixes by config order) — the deterministic iteration sequence
	// for the offline sweep.
	order   []*resource
	pending []*GridJob
	// pendingSpare is scanPending's output buffer; it and pending swap
	// roles at the end of every scan.
	pendingSpare []*GridJob
	stats        Stats
	nextSeq      int
	// names holds the job IDs and estimate details, which the jobs and
	// the journal keep for the scheduler's life; nextSeq's discipline
	// guards it.
	names slab.Slab
	// spec is SubmitBatch's scratch: the spec of the job it is building.
	spec workload.JobSpec
	obs  *obs.Obs
	ins  schedInstruments
	// placeDetails[n] is the place event's detail for attempt n (see
	// placeDetail).
	placeDetails []string

	// cands is the cached matchmaking view (see candidates), built
	// from the MDS view at candsVersion. 0 — never an MDS version —
	// marks it invalid: nothing built yet, or a resource registered
	// since.
	cands        []candidate
	candsVersion uint64
}

// schedInstruments holds the scheduler's label-less metric handles;
// per-resource series are created lazily on first placement. All
// handles are nil-safe, so a scheduler built without Options.Obs
// records nothing.
type schedInstruments struct {
	submitted *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	retries   *obs.Counter
	bundled   *obs.Counter
	pending   *obs.Gauge
	placeWait *obs.Histogram
}

// Options wires a scheduler to the rest of a deployment; the zero
// value is an unobserved, in-memory scheduler.
type Options struct {
	// Obs is the observability hub: ranking decisions become
	// per-resource placement counters, placement latency (submit →
	// dispatch, virtual time) feeds a histogram, and every lifecycle
	// transition is journaled.
	Obs *obs.Obs
}

// New creates a scheduler reading resource state from idx.
func New(eng *sim.Engine, idx *mds.Index, cfg Config, opts Options) *Scheduler {
	o := opts.Obs
	s := &Scheduler{
		eng:       eng,
		idx:       idx,
		cfg:       cfg,
		resources: make(map[string]*resource),
		obs:       o,
		ins: schedInstruments{
			submitted: o.Counter("lattice_sched_jobs_submitted_total", "Grid jobs accepted by the meta-scheduler"),
			completed: o.Counter("lattice_sched_jobs_completed_total", "Grid jobs that reached completed"),
			failed:    o.Counter("lattice_sched_jobs_failed_total", "Grid jobs that reached failed"),
			retries:   o.Counter("lattice_sched_retries_total", "Resource-level failures sent back for rescheduling"),
			bundled:   o.Counter("lattice_sched_jobs_bundled_total", "Replicates merged away by bundling"),
			pending:   o.Gauge("lattice_sched_pending_jobs", "Jobs awaiting placement"),
			placeWait: o.Histogram("lattice_sched_placement_wait_seconds", "Virtual seconds from submit to dispatch", nil),
		},
	}
	if cfg.RescanInterval > 0 {
		eng.Every(cfg.RescanInterval, func() {
			s.checkOffline()
			s.scanPending()
		})
	}
	return s
}

// SetPredictor installs the runtime-estimation model. Without one the
// scheduler operates estimate-blind (the system's pre-Section-VI
// behaviour). It is a setter, not an Options field, because the
// ablation experiments and the benchmark swap the predictor on a
// deployment that is already built.
func (s *Scheduler) SetPredictor(p Predictor) { s.predictor = p }

// Register adds a resource target; speed is the measured speed
// relative to the reference computer (use Calibrate to measure it
// in-band).
func (s *Scheduler) Register(target lrm.LRM, speed float64) error {
	if speed <= 0 {
		return fmt.Errorf("metasched: speed for %s must be positive", target.Name())
	}
	if _, dup := s.resources[target.Name()]; dup {
		return fmt.Errorf("metasched: resource %s already registered", target.Name())
	}
	r := &resource{s: s, name: target.Name(), lrm: target, speed: speed, stability: 1}
	s.resources[r.name] = r
	s.order = append(s.order, r)
	s.candsVersion = 0
	return nil
}

// Stability returns a resource's current stability score.
//
//lint:allow deadexport -- the recovery tests in internal/core read the learned EWMAs back through it: README "Durability & crash recovery" lists them among what a coordinator kill must not lose
func (s *Scheduler) Stability(name string) (float64, bool) {
	r, ok := s.resources[name]
	if !ok {
		return 0, false
	}
	return r.stability, true
}

// observeStability feeds one job outcome on a resource into the
// learned stability EWMA. A no-op unless learning is enabled.
func (s *Scheduler) observeStability(r *resource, ok bool) {
	if s.cfg.StabilityAlpha <= 0 {
		return
	}
	v := 0.0
	if ok {
		v = 1
	}
	r.stability = (1-s.cfg.StabilityAlpha)*r.stability + s.cfg.StabilityAlpha*v
}

// Stats returns scheduler accounting.
func (s *Scheduler) Stats() Stats { return s.stats }
