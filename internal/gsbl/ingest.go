package gsbl

import (
	"lattice/internal/admit"
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

// IngestErrors returns the refusals NoteIngestErr kept, most recent
// last; empty means every submission a load scheduled was accepted.
func (s *Service) IngestErrors() []error { return s.ingestErrs }

// drained is a request's record as the FIFO door's drain event;
// (*served)(b) is the admit door's and (*arrival)(b) the scheduled
// arrival's. The record is the one heap object a pending request costs.
type drained Batch

// Fire drains the request.
func (d *drained) Fire() { d.svc.drain((*Batch)(d)) }

// arrival is a scheduled request coming due: it goes behind the front
// door, or is expanded on the spot, as if submitted now. A shed on
// arrival has no caller to answer; it is journaled and counted.
type arrival Batch

func (a *arrival) Fire() {
	b := (*Batch)(a)
	s := b.svc
	s.arrivals--
	b.scheduled = false
	if !b.direct && s.ingest.Enabled() {
		s.enqueue(b)
	} else {
		s.accept(b)
	}
}

// Arrivals counts the scheduled requests that are not yet due. Replay
// re-applies every scheduled record, so a recovered service counts the
// same.
func (s *Service) Arrivals() int { return s.arrivals }

// enqueue puts a validated, durably recorded request behind the front
// door (the enqueue is the input — a crash loses nothing that was
// accepted): the fair-share queue when admission control is on,
// otherwise FIFO, where the serialized coordinator reaches it one
// service time after the request ahead of it. It returns the rejection
// when the admission layer sheds b itself on arrival.
func (s *Service) enqueue(b *Batch) *admit.Rejection {
	now := s.eng.Now()
	b.arrived = now
	if s.admit != nil {
		return s.admitEnqueue(b, now)
	}
	start := now
	if s.ingestFree > start {
		start = s.ingestFree
	}
	done := start.Add(s.ingest.cost(&b.Submission))
	s.ingestFree = done
	s.ingestDepth++
	ins := s.ingestInstruments()
	ins.depth.Set(float64(s.ingestDepth))
	ins.accepted.Inc()
	s.eng.At(done, (*drained)(b))
	return nil
}

// drain is the front door reaching a queued request: expand it into
// grid jobs and tell whoever is waiting.
func (s *Service) drain(b *Batch) {
	s.ingestDepth--
	ins := s.ingestInstruments()
	ins.depth.Set(float64(s.ingestDepth))
	ins.wait.Observe(float64(s.eng.Now().Sub(b.arrived)))
	s.accept(b, " (ingest-drained)")
}

// ingestInstruments builds the instrument handles on first use, so a
// deployment without a front door exposes none.
func (s *Service) ingestInstruments() *ingestIns {
	if s.ingestInsCache != nil {
		return s.ingestInsCache
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

// NoteIngestErr keeps a refused submission's error in IngestErrors,
// most recent last, for a caller with nobody to return it to — such as
// a load that schedules submissions ahead of time. It journals nothing:
// a submission refused when it was offered has no WAL record, so
// replay could not regenerate an event for it.
func (s *Service) NoteIngestErr(err error) {
	const keep = 32
	if len(s.ingestErrs) >= keep {
		s.ingestErrs = s.ingestErrs[1:]
	}
	s.ingestErrs = append(s.ingestErrs, err)
}
