// Package metasched implements the grid-level scheduler of Section V:
// it watches resource state through MDS, filters resources by job
// requirements (platform, memory, MPI capability, software
// dependencies), ranks the eligible ones by current load, measured
// speed, and stability, gates long jobs off unstable resources using a
// priori runtime estimates, bundles very short jobs to amortize
// per-job overhead, and computes BOINC workunit deadlines from the
// estimates.
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

	"lattice/internal/grid/adapter"
	"lattice/internal/grid/mds"
	"lattice/internal/grid/rsl"
	"lattice/internal/lrm"
	"lattice/internal/obs"
	"lattice/internal/sim"
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
// computer; estimate.Estimator satisfies it.
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
	// before its local submission, and its results take OutputMB /
	// bandwidth to come back.
	stageBandwidthMBps = 50.0
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
type JobStatus int

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

// GridJob is the scheduler's record of one job.
type GridJob struct {
	Desc *rsl.JobDescription
	Spec *workload.JobSpec

	// Batch is the portal batch the job belongs to ("" for direct
	// submissions); it is the Batch field of the job's journal events.
	Batch string

	Status      JobStatus
	Resource    string
	Attempts    int
	SubmittedAt sim.Time
	StartedAt   sim.Time
	CompletedAt sim.Time
	FailReason  string
	// EstimateRefSeconds is the prediction used for placement (0 when
	// no model was available).
	EstimateRefSeconds float64

	// OnDone fires on terminal status (completed or failed).
	OnDone func(j *GridJob)

	// disrupted marks jobs that hit a fault-induced setback (death
	// requeue, gatekeeper failure, a "faults:" resource failure);
	// disruptedAt is the first such moment, feeding the recovery
	// latency histogram when the job finally completes.
	disrupted   bool
	disruptedAt sim.Time
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
	lrm     lrm.LRM
	adapter adapter.Adapter
	speed   float64
	// active counts this scheduler's jobs dispatched to the resource
	// and not yet terminal — the scheduler's own view of the load it
	// has created, which is fresher than the MDS entry (whose refresh
	// lags by the provider period). Without it, a burst of arrivals
	// all sees the same stale "free" snapshot and lands on one
	// resource.
	active int
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
	// series exists only for resources that were actually chosen.
	placements *obs.Counter
}

// Scheduler is the grid-level scheduler.
type Scheduler struct {
	eng       *sim.Engine
	idx       *mds.Index
	cfg       Config
	predictor Predictor
	resources map[string]*resource
	// order lists resource names in registration order (which core
	// fixes by config order) — the deterministic iteration sequence
	// for the offline sweep.
	order   []string
	pending []*GridJob
	// pendingSpare is scanPending's output buffer; it and pending swap
	// roles at the end of every scan.
	pendingSpare []*GridJob
	jobs         map[string]*GridJob
	stats        Stats
	nextSeq      int
	scanning     bool
	obs          *obs.Obs
	ins          schedInstruments
	durable      Durability

	// cands is the cached matchmaking view (see candidates), built
	// from the MDS view at candsVersion. 0 — never an MDS version —
	// marks it invalid: nothing built yet, or a resource registered
	// since.
	cands        []candidate
	candsVersion uint64
}

// Durability is the write-ahead-log hook for the scheduler's learned
// state: stability EWMAs and submit-retry backoff decisions. Methods
// are called synchronously on the engine goroutine; implementations
// must not call back into the scheduler.
type Durability interface {
	// EWMA records a resource's updated stability estimate.
	EWMA(at sim.Time, resource string, stability float64)
	// Backoff records a submit-retry backoff decision for a job.
	Backoff(at sim.Time, job, resource string, attempt int, backoff sim.Duration)
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
	// Durable is the write-ahead-log hook (nil: nothing is logged).
	Durable Durability
}

// New creates a scheduler reading resource state from idx.
func New(eng *sim.Engine, idx *mds.Index, cfg Config, opts Options) *Scheduler {
	o := opts.Obs
	s := &Scheduler{
		eng:       eng,
		idx:       idx,
		cfg:       cfg,
		resources: make(map[string]*resource),
		jobs:      make(map[string]*GridJob),
		obs:       o,
		durable:   opts.Durable,
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

// Register adds a resource target. The adapter is chosen by the
// resource's kind; speed is the measured speed relative to the
// reference computer (use Calibrate to measure it in-band).
func (s *Scheduler) Register(target lrm.LRM, speed float64) error {
	if speed <= 0 {
		return fmt.Errorf("metasched: speed for %s must be positive", target.Name())
	}
	kind := target.Info().Kind
	ad, err := adapter.ForKind(kind)
	if err != nil {
		return err
	}
	if _, dup := s.resources[target.Name()]; dup {
		return fmt.Errorf("metasched: resource %s already registered", target.Name())
	}
	s.resources[target.Name()] = &resource{lrm: target, adapter: ad, speed: speed, stability: 1}
	s.order = append(s.order, target.Name())
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
func (s *Scheduler) observeStability(name string, ok bool) {
	if s.cfg.StabilityAlpha <= 0 {
		return
	}
	r, found := s.resources[name]
	if !found {
		return
	}
	v := 0.0
	if ok {
		v = 1
	}
	r.stability = (1-s.cfg.StabilityAlpha)*r.stability + s.cfg.StabilityAlpha*v
	if s.durable != nil {
		s.durable.EWMA(s.eng.Now(), name, r.stability)
	}
}

// Stats returns scheduler accounting.
func (s *Scheduler) Stats() Stats { return s.stats }
