package metasched

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"lattice/internal/grid/rsl"
	"lattice/internal/lrm"
	"lattice/internal/obs"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// Submit accepts a grid job: the RSL description plus the GARLI
// specification the runtime model reads. The job is placed immediately
// when an eligible resource is reporting, otherwise it waits in the
// pending queue for the next scan.
func (s *Scheduler) Submit(desc *rsl.JobDescription, spec *workload.JobSpec, onDone func(*GridJob)) (*GridJob, error) {
	if err := desc.Validate(); err != nil {
		return nil, err
	}
	if _, dup := s.jobs[desc.JobID]; dup {
		return nil, fmt.Errorf("metasched: duplicate job ID %s", desc.JobID)
	}
	j := &GridJob{
		Desc:        desc,
		Spec:        spec,
		Batch:       desc.BatchID,
		Status:      StatusPending,
		SubmittedAt: s.eng.Now(),
		OnDone:      onDone,
	}
	s.obs.Record(j.Batch, desc.JobID, obs.StageSubmit, "", "")
	s.ins.submitted.Inc()
	// Grid overhead: staging and submission cost attached to every
	// independent job.
	j.Desc.Work += PerJobOverheadSeconds * lrm.ReferenceCellsPerSecond
	if s.predictor != nil && spec != nil {
		if est, err := s.predictor.Predict(spec); err == nil {
			j.EstimateRefSeconds = est + PerJobOverheadSeconds
			s.obs.Record(j.Batch, desc.JobID, obs.StageEstimate, "",
				fmt.Sprintf("%.0f ref-seconds", j.EstimateRefSeconds))
		}
	}
	s.jobs[desc.JobID] = j
	s.stats.Submitted++
	if !s.tryPlace(j) {
		s.pending = append(s.pending, j)
		s.stats.UnplaceableAt++
	}
	s.ins.pending.Set(float64(len(s.pending)))
	return j, nil
}

// SubmitBatch expands a portal submission into grid jobs, applying
// replicate bundling for very short jobs: when the estimate is below
// minJobSeconds, several replicates are merged into a single job whose
// search-replicate count is raised, amortizing the per-job overhead
// ("we can ratchet up the number of search replicates each individual
// GARLI job will perform"). The supplied work sampler provides each
// job's true cost. Returns the created jobs.
func (s *Scheduler) SubmitBatch(sub *workload.Submission, rng *sim.RNG, onDone func(*GridJob)) ([]*GridJob, error) {
	if err := sub.Validate(); err != nil {
		return nil, err
	}
	bundle := 1
	if s.cfg.BundleTargetSeconds > 0 && s.predictor != nil {
		if est, err := s.predictor.Predict(&sub.Spec); err == nil && est < minJobSeconds {
			perRep := est / float64(sub.Spec.SearchReps)
			if perRep <= 0 {
				perRep = est
			}
			bundle = int(s.cfg.BundleTargetSeconds / (perRep * float64(sub.Spec.SearchReps)))
			if bundle < 1 {
				bundle = 1
			}
			if bundle > sub.Replicates {
				bundle = sub.Replicates
			}
		}
	}
	var jobs []*GridJob
	for rep := 0; rep < sub.Replicates; rep += bundle {
		n := bundle
		if rep+n > sub.Replicates {
			n = sub.Replicates - rep
		}
		spec := sub.Spec
		spec.SearchReps = sub.Spec.SearchReps * n
		spec.Seed = sub.Spec.Seed + int64(rep)
		s.nextSeq++
		desc := &rsl.JobDescription{
			JobID:       fmt.Sprintf("%s-r%04d-%d", sanitizeID(sub.UserEmail), rep, s.nextSeq),
			BatchID:     sub.BatchTag,
			Executable:  "garli",
			Arguments:   []string{"garli.conf"},
			Count:       1,
			MaxMemoryMB: spec.MemoryMB(),
			Platforms:   []lrm.Platform{lrm.LinuxX86, lrm.WindowsX86, lrm.DarwinX86},
			Work:        spec.SampleWork(rng),
			// Input: the sequence matrix; output: trees and logs.
			InputMB:     float64(spec.NumTaxa) * float64(spec.SeqLength) / (1 << 20),
			OutputMB:    0.5,
			ServiceOnly: sub.ServiceOnly,
		}
		if n > 1 {
			s.stats.Bundled += n - 1
			s.ins.bundled.Add(float64(n - 1))
		}
		specCopy := spec
		j, err := s.Submit(desc, &specCopy, onDone)
		if err != nil {
			return jobs, err
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

func sanitizeID(email string) string {
	out := make([]byte, 0, len(email))
	for i := 0; i < len(email); i++ {
		c := email[i]
		if c == '@' || c == '.' {
			c = '_'
		}
		out = append(out, c)
	}
	return string(out)
}

// scanPending retries placement of queued jobs against one candidate
// view, held for the whole scan. Survivors are filtered into the
// scheduler's spare buffer, which then trades places with the queue,
// so a steady-state scan allocates nothing.
func (s *Scheduler) scanPending() {
	if s.scanning || len(s.pending) == 0 {
		return
	}
	s.scanning = true
	defer func() { s.scanning = false }()
	snap := s.candidates()
	n := len(s.pending)
	still := s.pendingSpare[:0]
	for _, j := range s.pending[:n] {
		if j.Status == StatusPending && !s.place(j, snap) {
			still = append(still, j)
		}
	}
	// A placement that fails synchronously (a refused zero-delay submit,
	// a job failing inside Submit) re-queues its job behind the n being
	// ranged over; those entries outlive the scan.
	still = append(still, s.pending[n:]...)
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
	d := j.Desc
	// Backlog cap: keep the grid-level queue in charge of batching
	// rather than flooding one resource's local queue.
	if c.info.TotalCPUs > 0 && float64(c.res.active) >= maxBacklogFactor*float64(c.info.TotalCPUs) {
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
	if d.ServiceOnly && c.info.Kind == "boinc" {
		return false
	}
	if !lrm.HasPlatform(d.Platforms, c.info.Platforms...) {
		return false
	}
	if d.MaxMemoryMB > c.info.NodeMemoryMB {
		return false
	}
	if d.NeedsMPI && !c.info.MPI {
		return false
	}
	if !lrm.HasSoftware(d.Software, c.info.Software) {
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
	if s.cfg.Policy == PolicyFull && unstable && j.EstimateRefSeconds > 0 {
		if sim.Duration(j.EstimateRefSeconds/c.res.speed) > unstableMaxEstimate {
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
	if my := float64(c.res.active); my > load {
		load = my
	}
	if s.cfg.Policy == PolicyNaive {
		return (total + 1) / (load + 1)
	}
	est := j.EstimateRefSeconds
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

// dispatch hands the job to the chosen resource through its adapter.
func (s *Scheduler) dispatch(j *GridJob, c *candidate) {
	d := *j.Desc
	d.EstimatedRefSeconds = j.EstimateRefSeconds
	// BOINC deadline: estimate-driven; without an estimate the server's
	// own default applies.
	if c.info.Kind == "boinc" && j.EstimateRefSeconds > 0 {
		local := j.EstimateRefSeconds / c.res.speed
		d.DelayBound = sim.Duration(local * boincDeadlineSlack)
		if d.DelayBound < 6*sim.Hour {
			d.DelayBound = 6 * sim.Hour
		}
	}
	s.noteBreakerDispatch(c.info.Name, c.res)
	j.Status = StatusRunning
	j.Resource = c.info.Name
	j.StartedAt = s.eng.Now()
	j.Attempts++
	s.obs.Record(j.Batch, d.JobID, obs.StagePlace, c.info.Name,
		fmt.Sprintf("policy=%s attempt=%d", s.cfg.Policy, j.Attempts))
	if c.res.placements == nil {
		c.res.placements = s.obs.Counter("lattice_sched_placements_total",
			"Placement decisions by resource and ranking policy",
			obs.L("resource", c.info.Name), obs.L("policy", s.cfg.Policy.String()))
	}
	c.res.placements.Inc()
	s.ins.placeWait.Observe(float64(s.eng.Now().Sub(j.SubmittedAt)))
	name := c.info.Name
	res := c.res
	// attempt pins this dispatch's identity: callbacks arriving after
	// the job was requeued and re-dispatched (a cancelled copy limping
	// home, a slow result from a dead resource) carry a stale attempt
	// and are ignored.
	attempt := j.Attempts
	submit := func() {
		if j.Status != StatusRunning || j.Resource != name || j.Attempts != attempt {
			return // cancelled, requeued or re-routed during staging
		}
		s.obs.Record(j.Batch, d.JobID, obs.StageDispatch, name, "")
		err := res.adapter.Submit(res.lrm, &d,
			func() {
				// Results stage back before the job counts as done.
				out := s.stageDelay(d.OutputMB)
				if out > 0 {
					s.eng.Schedule(out, func() { s.onJobComplete(j, attempt) })
				} else {
					s.onJobComplete(j, attempt)
				}
			},
			func(reason string) { s.onJobFail(j, name, reason, attempt) },
		)
		if err != nil {
			s.submitFailed(j, name, err)
		}
	}
	c.res.active++
	if in := s.stageDelay(d.InputMB); in > 0 {
		s.eng.Schedule(in, submit)
	} else {
		submit()
	}
}

// stageDelay converts a transfer size to a staging duration.
func (s *Scheduler) stageDelay(mb float64) sim.Duration {
	if mb <= 0 {
		return 0
	}
	return sim.Duration(mb / stageBandwidthMBps)
}

// release drops the in-flight count for the job's resource.
func (s *Scheduler) release(j *GridJob) {
	if r, ok := s.resources[j.Resource]; ok && r.active > 0 {
		r.active--
	}
}

// submitFailed handles a gatekeeper submit error: the job retries on
// its own exponential timer (submitRetryBase·2^k, capped at
// submitRetryMax).
func (s *Scheduler) submitFailed(j *GridJob, name string, err error) {
	s.release(j)
	j.Status = StatusPending
	j.Resource = ""
	s.markDisrupted(j)
	s.observeBreaker(name, false)
	s.stats.SubmitRetries++
	backoff := submitRetryBase
	for i := 1; i < j.Attempts; i++ {
		backoff *= 2
		if backoff >= submitRetryMax {
			backoff = submitRetryMax
			break
		}
	}
	s.obs.Counter("lattice_sched_submit_retries_total",
		"Gatekeeper submit failures sent to exponential backoff").Inc()
	s.obs.Record(j.Batch, j.Desc.JobID, obs.StageRequeue, name,
		fmt.Sprintf("submit failed (%v); retry in %.0fs", err, float64(backoff)))
	if s.durable != nil {
		s.durable.Backoff(s.eng.Now(), j.Desc.JobID, name, j.Attempts, backoff)
	}
	s.eng.Schedule(backoff, func() {
		if j.Status != StatusPending {
			return // cancelled or picked up by a scan meanwhile
		}
		if !s.tryPlace(j) {
			s.pending = append(s.pending, j)
			s.ins.pending.Set(float64(len(s.pending)))
		}
	})
}

// checkOffline runs before each periodic scan: any resource holding
// in-flight jobs whose MDS entry has expired is presumed dead — a
// crashed Globus container stops publishing, its entry ages out, and
// everything it held is requeued (the paper's TTL machinery, closed
// into a recovery loop).
func (s *Scheduler) checkOffline() {
	for _, name := range s.order {
		r := s.resources[name]
		if r.active == 0 {
			continue
		}
		if _, ok := s.idx.Lookup(name); ok {
			continue
		}
		s.requeueFrom(name)
	}
}

// requeueFrom pulls every running job off a presumed-dead resource and
// returns it to the pending queue, cancelling the remote copy
// best-effort so a late completion cannot race the reissue.
func (s *Scheduler) requeueFrom(resource string) {
	var ids []string
	for id, j := range s.jobs {
		if j.Status == StatusRunning && j.Resource == resource {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	r := s.resources[resource]
	for _, id := range ids {
		j := s.jobs[id]
		r.lrm.Cancel(id)
		s.release(j)
		s.stats.Requeued++
		s.obs.Counter("lattice_sched_requeues_total",
			"In-flight jobs requeued after resource death (MDS expiry)").Inc()
		s.obs.Record(j.Batch, id, obs.StageRequeue, resource, "resource presumed dead (MDS entry expired)")
		s.markDisrupted(j)
		j.Status = StatusPending
		j.Resource = ""
		s.pending = append(s.pending, j)
	}
	s.observeStability(resource, false)
	s.observeBreaker(resource, false)
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

func (s *Scheduler) onJobComplete(j *GridJob, attempt int) {
	if j.Status != StatusRunning || j.Attempts != attempt {
		return
	}
	s.release(j)
	s.observeStability(j.Resource, true)
	s.observeBreaker(j.Resource, true)
	if j.disrupted {
		s.obs.Histogram("lattice_sched_fault_recovery_seconds",
			"Virtual seconds from a job's first fault-induced disruption to its completion", nil).
			Observe(float64(s.eng.Now().Sub(j.disruptedAt)))
	}
	j.Status = StatusCompleted
	j.CompletedAt = s.eng.Now()
	s.stats.Completed++
	s.ins.completed.Inc()
	s.obs.Record(j.Batch, j.Desc.JobID, obs.StageComplete, j.Resource, "")
	if j.OnDone != nil {
		j.OnDone(j)
	}
}

func (s *Scheduler) onJobFail(j *GridJob, resourceName, reason string, attempt int) {
	if j.Status != StatusRunning || j.Attempts != attempt {
		return
	}
	s.release(j)
	s.stats.Retries++
	s.ins.retries.Inc()
	s.observeStability(resourceName, false)
	s.observeBreaker(resourceName, false)
	if strings.HasPrefix(reason, "faults:") {
		s.markDisrupted(j)
	}
	if j.Attempts > retryLimit {
		j.Status = StatusFailed
		j.CompletedAt = s.eng.Now()
		j.FailReason = reason
		s.stats.Failed++
		s.ins.failed.Inc()
		s.obs.Record(j.Batch, j.Desc.JobID, obs.StageFail, resourceName, reason)
		if j.OnDone != nil {
			j.OnDone(j)
		}
		return
	}
	// Back to pending; the periodic scan will find a new home.
	s.obs.Record(j.Batch, j.Desc.JobID, obs.StageReissue, resourceName, reason)
	j.Status = StatusPending
	j.Resource = ""
	s.pending = append(s.pending, j)
	s.ins.pending.Set(float64(len(s.pending)))
}

// Cancel aborts a job wherever it is.
func (s *Scheduler) Cancel(jobID string) bool {
	j, ok := s.jobs[jobID]
	if !ok || j.Status == StatusCompleted || j.Status == StatusFailed {
		return false
	}
	if j.Status == StatusRunning {
		if r, ok := s.resources[j.Resource]; ok {
			r.lrm.Cancel(jobID)
		}
		s.release(j)
	}
	for i, p := range s.pending {
		if p == j {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			break
		}
	}
	j.Status = StatusFailed
	j.FailReason = "cancelled by user"
	j.CompletedAt = s.eng.Now()
	s.ins.failed.Inc()
	s.obs.Record(j.Batch, j.Desc.JobID, obs.StageFail, "", "cancelled by user")
	s.ins.pending.Set(float64(len(s.pending)))
	return true
}
