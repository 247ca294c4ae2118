package metasched

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"lattice/internal/lrm"
	"lattice/internal/obs"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// submit accepts a grid job described by the caller (ID, work,
// requirements, Owner); spec, when not nil, is what the runtime model
// estimates it from. The job is placed immediately when an eligible
// resource is reporting, otherwise it waits in the pending queue for
// the next scan. The job is not checked here: the door priced its
// submission, and each LRM checks the job at its own Submit.
func (s *Scheduler) submit(j *GridJob, spec *workload.JobSpec) {
	j.Status = StatusPending
	j.SubmittedAt = s.eng.Now()
	s.obs.Record(j.Batch, j.ID, obs.StageSubmit, "", "")
	s.ins.submitted.Inc()
	// Grid overhead: staging and submission cost attached to every
	// independent job.
	j.Work += PerJobOverheadSeconds * lrm.ReferenceCellsPerSecond
	if s.predictor != nil && spec != nil {
		if est, err := s.predictor.Predict(spec); err == nil {
			j.EstimatedRefSeconds = est + PerJobOverheadSeconds
			s.obs.Record(j.Batch, j.ID, obs.StageEstimate, "", s.estimateDetail(j.EstimatedRefSeconds))
		}
	}
	s.stats.Submitted++
	if !s.tryPlace(j) {
		s.pending = append(s.pending, j)
		s.stats.UnplaceableAt++
	}
	s.ins.pending.Set(float64(len(s.pending)))
}

// SubmitBatch expands a portal submission into grid jobs, applying
// replicate bundling for very short jobs: when the estimate is below
// minJobSeconds, several replicates are merged into a single job whose
// search-replicate count is raised, amortizing the per-job overhead
// ("we can ratchet up the number of search replicates each individual
// GARLI job will perform"). The supplied work sampler provides each
// job's true cost; owner (nil for none) becomes each job's Owner.
// Returns the created jobs in jobs[:0] when they fit its capacity, and
// otherwise in a slice of exactly their number.
//
// The caller passes a submission that Submission.Validate accepted,
// which priced it as the largest job a bundle can form, so every job
// expands with a finite, positive work and an int memory requirement:
// SubmitBatch does not check it again, and cannot fail. The portal's
// door (gsbl.Service.Submit) validates every submission, recovered
// ones and workflow stages included, and is the only caller outside
// tests.
//
// Each job's spec — the submission's, with its bundled search-replicate
// count and its first replicate's seed — is built in the scheduler's
// one scratch spec and priced there; the job keeps only its
// SearchReps. A predictor gets the scratch spec, never &sub.Spec, which
// would move every caller's submission to the heap, predictor or not.
func (s *Scheduler) SubmitBatch(sub *workload.Submission, rng *sim.RNG, owner Owner, jobs []*GridJob) []*GridJob {
	bundle := 1
	if s.cfg.BundleTargetSeconds > 0 && s.predictor != nil {
		s.spec = sub.Spec
		if est, err := s.predictor.Predict(&s.spec); err == nil && est < minJobSeconds {
			perRep := est / float64(sub.Spec.SearchReps)
			if perRep <= 0 {
				perRep = est
			}
			// Clamped in float64: a tiny estimate's quotient may not fit an int.
			bundle = int(max(min(s.cfg.BundleTargetSeconds/(perRep*float64(sub.Spec.SearchReps)), float64(sub.Replicates)), 1))
		}
	}
	if n := (sub.Replicates + bundle - 1) / bundle; cap(jobs) < n {
		jobs = make([]*GridJob, 0, n)
	}
	jobs = jobs[:0]
	for rep := 0; rep < sub.Replicates; rep += bundle {
		n := bundle
		if rep+n > sub.Replicates {
			n = sub.Replicates - rep
		}
		s.nextSeq++
		// submit is the last reader of the scratch spec.
		spec := &s.spec
		*spec = sub.Spec
		spec.SearchReps = sub.Spec.SearchReps * n
		spec.Seed = sub.Spec.Seed + int64(rep)
		j := &GridJob{
			Job: lrm.Job{
				ID:       s.jobID(sub.UserEmail, rep, s.nextSeq),
				Batch:    sub.BatchTag,
				Work:     spec.SampleWork(rng),
				MemoryMB: spec.MemoryMB(),
			},
			Owner: owner,
			// Input: the sequence matrix.
			InputMB:     float64(spec.NumTaxa) * float64(spec.SeqLength) / (1 << 20),
			SearchReps:  spec.SearchReps,
			ServiceOnly: sub.ServiceOnly,
		}
		if n > 1 {
			s.stats.Bundled += n - 1
			s.ins.bundled.Add(float64(n - 1))
		}
		s.submit(j, spec)
		jobs = append(jobs, j)
	}
	return jobs
}

// jobID names the job that starts at replicate rep of a submission from
// email: the email with '_' for every '@' and '.', "-r", rep padded to
// four digits, "-" and the scheduler's sequence number seq.
func (s *Scheduler) jobID(email string, rep, seq int) string {
	var buf [96]byte
	id := buf[:0]
	for i := 0; i < len(email); i++ {
		c := email[i]
		if c == '@' || c == '.' {
			c = '_'
		}
		id = append(id, c)
	}
	id = append(id, "-r"...)
	for p := 1000; p > 1 && rep < p; p /= 10 {
		id = append(id, '0')
	}
	id = strconv.AppendInt(id, int64(rep), 10)
	id = strconv.AppendInt(append(id, '-'), int64(seq), 10)
	return s.names.String(id)
}

// estimateDetail is the estimate event's detail: the estimate in whole
// reference seconds, as %.0f prints it.
func (s *Scheduler) estimateDetail(refSeconds float64) string {
	var buf [32]byte
	return s.names.String(append(strconv.AppendFloat(buf[:0], refSeconds, 'f', 0, 64), " ref-seconds"...))
}

// placeDetail is the place event's detail for a dispatch's attempt
// number, "policy=<policy> attempt=<n>". The policy is fixed at New, so
// each attempt number's text is built once and kept.
func (s *Scheduler) placeDetail(attempt int) string {
	for len(s.placeDetails) <= attempt {
		n := len(s.placeDetails)
		s.placeDetails = append(s.placeDetails,
			"policy="+s.cfg.Policy.String()+" attempt="+strconv.Itoa(n))
	}
	return s.placeDetails[attempt]
}

// scanPending retries placement of queued jobs against one candidate
// view, held for the whole scan. Survivors are filtered into the
// scheduler's spare buffer, which then trades places with the queue,
// so a steady-state scan allocates nothing.
func (s *Scheduler) scanPending() {
	if len(s.pending) == 0 {
		return
	}
	snap := s.candidates()
	still := s.pendingSpare[:0]
	for _, j := range s.pending {
		if j.Status == StatusPending && !s.place(j, snap) {
			still = append(still, j)
		}
	}
	clear(s.pending) // the spare must not pin placed jobs
	s.pending, s.pendingSpare = still, s.pending[:0]
	s.ins.pending.Set(float64(len(s.pending)))
}

// candidates pairs the current MDS view with registered resources. The
// result is cached and immutable — replaced, never edited, when the
// index view changes or Register adds a resource — so a caller may
// keep iterating its slice across a re-entrant placement.
func (s *Scheduler) candidates() []candidate {
	view, version := s.idx.View()
	if version == s.candsVersion {
		return s.cands
	}
	out := make([]candidate, 0, len(view))
	for _, e := range view {
		if r, ok := s.resources[e.Info.Name]; ok {
			out = append(out, candidate{res: r, info: e.Info})
		}
	}
	s.cands, s.candsVersion = out, version
	return out
}

// candidate pairs a reporting resource with its published info.
type candidate struct {
	res  *resource
	info lrm.Info
}

// eligible applies the paper's matchmaking filters.
func (s *Scheduler) eligible(j *GridJob, c *candidate) bool {
	// Backlog cap: keep the grid-level queue in charge of batching
	// rather than flooding one resource's local queue.
	if c.info.TotalCPUs > 0 && float64(len(c.res.running)) >= maxBacklogFactor*float64(c.info.TotalCPUs) {
		return false
	}
	// Circuit breaker: a tripped resource receives no work until the
	// cooldown elapses, then exactly one half-open probe.
	if !s.breakerAllows(c.res) {
		return false
	}
	// Service-grid restriction: short workflow stages never go to the
	// volunteer pool, whose turnaround latency (deadline slack, host
	// churn) would dwarf their compute.
	if j.ServiceOnly && c.info.Kind == "boinc" {
		return false
	}
	if j.MemoryMB > c.info.NodeMemoryMB {
		return false
	}
	// Stability gating (PolicyFull): jobs with long speed-scaled
	// estimates never go to unstable resources. Jobs without
	// estimates are conservatively allowed (pre-estimate era). With
	// learning enabled, a resource whose observed stability has sunk
	// below the floor is gated like a statically-unstable one — the
	// EWMA replaces config as the source of truth.
	unstable := !c.info.Stable
	if s.cfg.StabilityAlpha > 0 && c.res.stability < stabilityFloor {
		unstable = true
	}
	if s.cfg.Policy == PolicyFull && unstable && j.EstimatedRefSeconds > 0 {
		if sim.Duration(j.EstimatedRefSeconds/c.res.speed) > unstableMaxEstimate {
			return false
		}
	}
	return true
}

// score ranks an eligible resource; higher is better.
//
// PolicyNaive spreads by load alone. The speed-aware policies combine
// the paper's "current load" and "resource speed" criteria as a
// minimum-completion-time heuristic: expected wait (backlog over the
// resource's aggregate throughput) plus expected execution time
// (speed-scaled estimate); the resource with the earliest expected
// completion wins. The load term takes the larger of the MDS-reported
// backlog and the scheduler's own in-flight count, so a burst of
// submissions spreads instead of piling onto one stale snapshot.
func (s *Scheduler) score(c *candidate, j *GridJob) float64 {
	total := float64(c.info.TotalCPUs)
	if total == 0 {
		return math.Inf(-1)
	}
	load := float64(c.info.QueuedJobs + c.info.RunningJobs)
	if my := float64(len(c.res.running)); my > load {
		load = my
	}
	if s.cfg.Policy == PolicyNaive {
		return (total + 1) / (load + 1)
	}
	est := j.EstimatedRefSeconds
	if est <= 0 {
		est = 3600 // no model: assume an hour-scale job
	}
	waitSeconds := load * est / (total * c.res.speed)
	execSeconds := est / c.res.speed
	expected := waitSeconds + execSeconds
	// With learning enabled, deflate by observed stability: a resource
	// seen failing half its jobs effectively doubles its expected
	// completion time (retries are not free), pushing work toward
	// reliable resources without hard-excluding the flaky one.
	if s.cfg.StabilityAlpha > 0 {
		st := c.res.stability
		if st < 0.05 {
			st = 0.05
		}
		expected /= st
	}
	return -expected
}

// tryPlace attempts to schedule the job now; it reports success.
func (s *Scheduler) tryPlace(j *GridJob) bool {
	return s.place(j, s.candidates())
}

// place schedules j against a prepared candidate set.
func (s *Scheduler) place(j *GridJob, cands []candidate) bool {
	best := -1
	var bestScore float64
	for i := range cands {
		c := &cands[i]
		if !s.eligible(j, c) {
			continue
		}
		sc := s.score(c, j)
		if math.IsInf(sc, -1) {
			continue
		}
		if best < 0 || sc > bestScore {
			best, bestScore = i, sc
		}
	}
	if best < 0 {
		return false
	}
	s.dispatch(j, &cands[best])
	return true
}

// dispatch hands the job to the chosen resource as one lrm.Job — the
// per-LRM translation the paper's scheduler adapters performed — and
// submits it once the input has staged. The first dispatch hands over
// the job's own description, its embedded lrm.Job, with the attempt
// record the job carries inline; every later one a fresh record holding
// a copy of it. No record is ever reused, so a stale attempt's lrm.Job,
// which may still sit in a dead resource, is never overwritten: only an
// earlier attempt can be stale. A copy takes the description and
// nothing a resource did to the first lrm.Job: its own Owner and
// DelayBound are set here (a fault wrapper rewrites the Owner of the
// job it is handed).
func (s *Scheduler) dispatch(j *GridJob, c *candidate) {
	a, job := &j.first, &j.Job
	if j.Attempts > 0 {
		r := &retry{job: j.Job}
		a, job = &r.attempt, &r.job
	}
	*a = attempt{job: job, j: j, res: c.res}
	job.Owner, job.DelayBound = a, 0
	// BOINC deadline: estimate-driven; without an estimate the server's
	// own default applies.
	if c.info.Kind == "boinc" && j.EstimatedRefSeconds > 0 {
		local := j.EstimatedRefSeconds / c.res.speed
		job.DelayBound = max(sim.Duration(local*boincDeadlineSlack), 6*sim.Hour)
	}
	s.noteBreakerDispatch(c.res)
	j.Status = StatusRunning
	j.cur = a
	j.StartedAt = s.eng.Now()
	j.Attempts++
	s.obs.Record(j.Batch, j.ID, obs.StagePlace, c.info.Name, s.placeDetail(int(j.Attempts)))
	if c.res.placements == nil && s.obs != nil {
		c.res.placements = s.obs.Counter("lattice_sched_placements_total",
			"Placement decisions by resource and ranking policy",
			obs.L("resource", c.info.Name), obs.L("policy", s.cfg.Policy.String()))
	}
	c.res.placements.Inc()
	s.ins.placeWait.Observe(float64(s.eng.Now().Sub(j.SubmittedAt)))
	j.slot = int32(len(c.res.running))
	c.res.running = append(c.res.running, j)
	s.eng.After(sim.Duration(j.InputMB/stageBandwidthMBps), a)
}

// attempt is one dispatch of a grid job: the lrm.Job the resource runs
// and what reporting its end needs. It is that job's Owner, its Fire is
// the submission once the input has staged, and (*stageOut)(a) is the
// event that lands its results. Only the job's current attempt, the one
// its cur names while it runs, acts: a report arriving after the job
// was requeued or re-dispatched (a cancelled copy limping home, a slow
// result from a dead resource) comes from another record and is
// ignored.
type attempt struct {
	job *lrm.Job
	j   *GridJob
	res *resource
}

// current reports whether a is the dispatch its job is running.
func (a *attempt) current() bool { return a.j.Status == StatusRunning && a.j.cur == a }

// end keeps only the resource of the job's last dispatch as the job
// ends: the inline first attempt takes it over, so a retry's record —
// its attempt and its lrm.Job copy — is not kept alive for the job's
// life. No attempt acts once the job has ended, the first included.
func (j *GridJob) end() {
	if j.cur != &j.first {
		j.first.res, j.cur = j.cur.res, &j.first
	}
}

// retry is a later dispatch's record: its attempt and the lrm.Job it
// hands over, in one allocation.
type retry struct {
	attempt attempt
	job     lrm.Job
}

// Fire submits the job to the resource, unless it was requeued or
// re-routed while its input staged.
func (a *attempt) Fire() {
	s, j := a.res.s, a.j
	if !a.current() {
		return
	}
	s.obs.Record(j.Batch, j.ID, obs.StageDispatch, a.res.name, "")
	if err := a.res.lrm.Submit(a.job); err != nil {
		s.submitFailed(a.res, j, err)
	}
}

// Complete implements lrm.Owner: results stage back before the job
// counts as done.
func (a *attempt) Complete(*lrm.Job, sim.Time) { a.res.s.eng.After(stageOutDelay, (*stageOut)(a)) }

// Fail implements lrm.Owner.
func (a *attempt) Fail(_ *lrm.Job, _ sim.Time, reason string) { a.res.s.onJobFail(a, reason) }

// stageOut is an attempt's results arriving back from the resource.
type stageOut attempt

func (o *stageOut) Fire() { o.res.s.onJobComplete((*attempt)(o)) }

// stageOutDelay is how long every job's results take to stage back.
const stageOutDelay = sim.Duration(outputMB / stageBandwidthMBps)

// release takes the job off r's running list, if it is there, by
// moving the list's last job into its slot.
func (s *Scheduler) release(r *resource, j *GridJob) {
	if int(j.slot) >= len(r.running) || r.running[j.slot] != j {
		return
	}
	last := len(r.running) - 1
	r.running[j.slot] = r.running[last]
	r.running[j.slot].slot = j.slot
	r.running[last] = nil
	r.running = r.running[:last]
}

// submitFailed handles a gatekeeper submit error: the job retries on
// its own exponential timer (submitRetryBase·2^k, capped at
// submitRetryMax). A job the LRM refuses as malformed
// (lrm.ErrInvalidJob) no resource will ever take, so that refusal is
// its terminal instead.
func (s *Scheduler) submitFailed(r *resource, j *GridJob, err error) {
	s.release(r, j)
	if errors.Is(err, lrm.ErrInvalidJob) {
		s.fail(r, j, err.Error())
		return
	}
	j.Status = StatusPending
	j.cur = nil
	s.markDisrupted(j)
	s.observeBreaker(r, false)
	s.stats.SubmitRetries++
	backoff := submitRetryBase
	for i := 1; i < int(j.Attempts); i++ {
		backoff *= 2
		if backoff >= submitRetryMax {
			backoff = submitRetryMax
			break
		}
	}
	s.obs.Counter("lattice_sched_submit_retries_total",
		"Gatekeeper submit failures sent to exponential backoff").Inc()
	s.obs.Record(j.Batch, j.ID, obs.StageRequeue, r.name, r.refusalDetail(err, backoff))
	// The job sits in no queue until the timer fires, so nothing else
	// can place it meanwhile.
	s.eng.After(backoff, (*retryPlace)(j))
}

// refusalDetail is the requeue event's detail for a submit refusal with
// err that backs the job off for backoff. A resource refuses with few
// distinct errors and the backoff takes few values, so each text is
// built once per resource and kept.
func (r *resource) refusalDetail(err error, backoff sim.Duration) string {
	k := refusal{err.Error(), backoff}
	d, ok := r.refusals[k]
	if !ok {
		d = fmt.Sprintf("submit failed (%v); retry in %.0fs", err, float64(backoff))
		if r.refusals == nil {
			r.refusals = make(map[refusal]string)
		}
		r.refusals[k] = d
	}
	return d
}

// retryPlace is a job's backoff timer after a refused submission: it
// places the job again, or queues it when nothing takes it. The job has
// been dispatched, so its first attempt knows the scheduler.
type retryPlace GridJob

func (p *retryPlace) Fire() {
	j := (*GridJob)(p)
	s := j.first.res.s
	if !s.tryPlace(j) {
		s.pending = append(s.pending, j)
		s.ins.pending.Set(float64(len(s.pending)))
	}
}

// checkOffline runs before each periodic scan: any resource holding
// in-flight jobs whose MDS entry has expired is presumed dead — a
// crashed Globus container stops publishing, its entry ages out, and
// everything it held is requeued (the paper's TTL machinery, closed
// into a recovery loop).
func (s *Scheduler) checkOffline() {
	for _, r := range s.order {
		if len(r.running) == 0 {
			continue
		}
		if _, ok := s.idx.Lookup(r.name); ok {
			continue
		}
		s.requeueFrom(r)
	}
}

// requeueFrom pulls every running job off a presumed-dead resource and
// returns it to the pending queue, cancelling the remote copy
// best-effort so a late completion cannot race the reissue.
func (s *Scheduler) requeueFrom(r *resource) {
	jobs := slices.Clone(r.running)
	slices.SortFunc(jobs, func(a, b *GridJob) int { return strings.Compare(a.ID, b.ID) })
	for _, j := range jobs {
		r.lrm.Cancel(j.ID)
		s.release(r, j)
		s.stats.Requeued++
		s.obs.Counter("lattice_sched_requeues_total",
			"In-flight jobs requeued after resource death (MDS expiry)").Inc()
		s.obs.Record(j.Batch, j.ID, obs.StageRequeue, r.name, "resource presumed dead (MDS entry expired)")
		s.markDisrupted(j)
		j.Status = StatusPending
		j.cur = nil
		s.pending = append(s.pending, j)
	}
	s.observeStability(r, false)
	s.observeBreaker(r, false)
	s.ins.pending.Set(float64(len(s.pending)))
}

// markDisrupted stamps a job's first fault-induced setback.
func (s *Scheduler) markDisrupted(j *GridJob) {
	if j.disrupted {
		return
	}
	j.disrupted = true
	j.disruptedAt = s.eng.Now()
}

func (s *Scheduler) onJobComplete(a *attempt) {
	if !a.current() {
		return
	}
	j, r := a.j, a.res
	s.release(r, j)
	s.observeStability(r, true)
	s.observeBreaker(r, true)
	if j.disrupted {
		s.obs.Histogram("lattice_sched_fault_recovery_seconds",
			"Virtual seconds from a job's first fault-induced disruption to its completion", nil).
			Observe(float64(s.eng.Now().Sub(j.disruptedAt)))
	}
	j.end()
	j.Status = StatusCompleted
	j.CompletedAt = s.eng.Now()
	s.stats.Completed++
	s.ins.completed.Inc()
	s.obs.Record(j.Batch, j.ID, obs.StageComplete, r.name, "")
	if j.Owner != nil {
		j.Owner.JobDone(j)
	}
}

// fail ends j, last dispatched to r, as failed for reason: its one
// terminal.
func (s *Scheduler) fail(r *resource, j *GridJob, reason string) {
	j.end()
	j.Status = StatusFailed
	j.CompletedAt = s.eng.Now()
	j.FailReason = reason
	s.stats.Failed++
	s.ins.failed.Inc()
	s.obs.Record(j.Batch, j.ID, obs.StageFail, r.name, reason)
	if j.Owner != nil {
		j.Owner.JobDone(j)
	}
}

func (s *Scheduler) onJobFail(a *attempt, reason string) {
	if !a.current() {
		return
	}
	j, r := a.j, a.res
	s.release(r, j)
	s.stats.Retries++
	s.ins.retries.Inc()
	s.observeStability(r, false)
	s.observeBreaker(r, false)
	if strings.HasPrefix(reason, "faults:") {
		s.markDisrupted(j)
	}
	if j.Attempts > retryLimit {
		s.fail(r, j, reason)
		return
	}
	// Back to pending; the periodic scan will find a new home.
	s.obs.Record(j.Batch, j.ID, obs.StageReissue, r.name, reason)
	j.Status = StatusPending
	j.cur = nil
	s.pending = append(s.pending, j)
	s.ins.pending.Set(float64(len(s.pending)))
}
