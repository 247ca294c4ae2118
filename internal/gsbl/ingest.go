package gsbl

import (
	"fmt"

	"lattice/internal/obs"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// IngestConfig models the coordinator's front-door throughput: the
// paper's submission point is one process that validates, stages and
// registers every batch serially, so at portal scale the accept path
// itself becomes the bottleneck long before the federation runs out
// of CPUs. Each accepted submission occupies the coordinator for
// PerSubmissionSeconds plus PerReplicateSeconds per replicate of
// virtual time; submissions arriving while the coordinator is busy
// queue FIFO. The zero value disables the model entirely — submissions
// schedule synchronously on arrival, the pre-scale-out behaviour,
// bit-identical to builds without the ingest path.
type IngestConfig struct {
	// PerSubmissionSeconds is the fixed virtual cost of accepting one
	// submission (validation, staging, batch registration).
	PerSubmissionSeconds float64
	// PerReplicateSeconds is the marginal virtual cost per replicate
	// (input fan-out, per-job registration).
	PerReplicateSeconds float64
}

// Enabled reports whether the ingest model is active.
func (c IngestConfig) Enabled() bool {
	return c.PerSubmissionSeconds > 0 || c.PerReplicateSeconds > 0
}

// cost returns the coordinator occupancy of one submission.
func (c IngestConfig) cost(sub *workload.Submission) sim.Duration {
	return sim.Duration(c.PerSubmissionSeconds + c.PerReplicateSeconds*float64(sub.Replicates))
}

// ingestIns caches the ingest instrument handles.
type ingestIns struct {
	depth    *obs.Gauge
	wait     *obs.Histogram
	accepted *obs.Counter
}

// IngestDepth reports how many accepted submissions are queued behind
// the coordinator's front door right now.
func (s *Service) IngestDepth() int { return s.ingestDepth }

// IngestErrors returns deferred scheduling failures of drained
// submissions (most recent last); empty means every drained
// submission expanded cleanly.
func (s *Service) IngestErrors() []error { return s.ingestErrs }

// queued is a request waiting behind the front door — the one heap
// object a queued submission costs.
type queued struct {
	Request
	arrived sim.Time
}

// enqueue puts a validated, durably recorded request behind the front
// door (the enqueue is the input — a crash loses nothing that was
// accepted): the fair-share queue when admission control is on,
// otherwise FIFO, where the serialized coordinator reaches it one
// service time after the request ahead of it.
func (s *Service) enqueue(r Request) {
	now := s.eng.Now()
	if s.admit != nil {
		s.admitEnqueue(r, now)
		return
	}
	start := now
	if s.ingestFree > start {
		start = s.ingestFree
	}
	done := start.Add(s.ingest.cost(&r.Sub))
	s.ingestFree = done
	s.ingestDepth++
	if ins := s.ingestInstruments(); ins != nil {
		ins.depth.Set(float64(s.ingestDepth))
		ins.accepted.Inc()
	}
	it := &queued{Request: r, arrived: now}
	s.eng.ScheduleAt(done, func() { s.drain(it) })
}

// drain is the front door reaching a queued request: expand it into
// grid jobs and tell whoever is waiting. It runs inside an engine
// event, so a scheduling failure has no caller to return to.
func (s *Service) drain(it *queued) {
	s.ingestDepth--
	if ins := s.ingestInstruments(); ins != nil {
		ins.depth.Set(float64(s.ingestDepth))
		ins.wait.Observe(float64(s.eng.Now().Sub(it.arrived)))
	}
	b, err := s.submit(it.Sub, it.Origin,
		fmt.Sprintf("%d replicates for %s (ingest-drained)", it.Sub.Replicates, it.Sub.UserEmail), it.OnDone)
	if err != nil {
		s.NoteIngestErr(err)
	}
	if it.OnAccepted != nil {
		it.OnAccepted(b, err)
	}
}

// ingestInstruments builds the instrument handles on first use, so a
// deployment without a front door exposes none; nil without an obs hub.
func (s *Service) ingestInstruments() *ingestIns {
	if s.ingestInsCache != nil {
		return s.ingestInsCache
	}
	if s.obs == nil {
		return nil
	}
	s.ingestInsCache = &ingestIns{
		depth: s.obs.Gauge("lattice_gsbl_ingest_depth",
			"Accepted submissions queued behind the coordinator front door"),
		wait: s.obs.Histogram("lattice_gsbl_ingest_wait_seconds",
			"Virtual seconds from submission arrival to coordinator drain", nil),
		accepted: s.obs.Counter("lattice_gsbl_ingest_accepted_total",
			"Submissions accepted through the serialized ingest path"),
	}
	return s.ingestInsCache
}

// NoteIngestErr records a deferred scheduling failure, keeping the
// most recent ones. Exported for callers with no request to fail — the
// cluster's scheduled arrivals fire inside engine callbacks too.
func (s *Service) NoteIngestErr(err error) {
	const keep = 32
	if len(s.ingestErrs) >= keep {
		s.ingestErrs = s.ingestErrs[1:]
	}
	s.ingestErrs = append(s.ingestErrs, err)
	// Surface the failure as a batch-level journal event (empty batch/job — the
	// batch was never created) and a counter, so operators see it
	// without polling IngestErrors.
	s.obs.Record("", "", obs.StageFail, "ingest", "deferred expansion failed: "+err.Error())
	s.obs.Counter("lattice_ingest_errors_total",
		"Deferred submission expansion failures at the ingest drain").Inc()
}
