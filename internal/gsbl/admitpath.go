package gsbl

import (
	"lattice/internal/admit"
	"lattice/internal/obs"
	"lattice/internal/sim"
)

// This file is the admission-controlled variant of the ingest path
// (see ingest.go): with a controller installed, the FIFO front-door
// queue becomes a weighted fair-share queue with per-user quotas and
// deterministic load shedding. Everything still runs on the virtual
// clock inside engine callbacks, so same-seed runs shed the same
// submissions at the same instants.

// AdmitActive reports whether the admission controller is installed.
func (s *Service) AdmitActive() bool { return s.admit != nil }

// Sheds reports how many submissions the admission layer rejected,
// split by reason. Together with completed and failed batches these
// account every submission's single terminal:
// submissions == batches + quota + overload.
func (s *Service) Sheds() (quota, overload int) { return s.shedQuota, s.shedOverload }

// admitEnqueue is the admission-controlled accept path: charge the
// user's quota, tag the entry into the fair-share queue, shed from the
// low-share end while the queue exceeds its bounds, and start serving
// if the door is idle. The durable record was already written by
// Submit — sheds are decisions, not inputs, so recovery re-enqueues
// the submission and deterministically re-sheds it. The result is the
// rejection that shed b itself, nil when b is queued.
func (s *Service) admitEnqueue(b *Batch, now sim.Time) *admit.Rejection {
	sub := &b.Submission
	if rej := s.admit.TakeQuota(sub.UserEmail, float64(sub.Replicates), now); rej != nil {
		s.shed(b, rej)
		return rej
	}
	s.admit.Push(sub.UserEmail, s.ingest.cost(sub).Seconds(), b)
	s.ingestDepth++
	var own *admit.Rejection
	for {
		victim, rej := s.admit.Overflow(s.admitBusySeconds(now))
		if victim == nil {
			break
		}
		s.ingestDepth--
		if victim.Payload == b {
			kept := *rej // rej is the controller's until its next Overflow
			own = &kept
		}
		s.shed(victim.Payload.(*Batch), rej)
	}
	s.ingestInstruments().depth.Set(float64(s.ingestDepth))
	s.admitServe(now)
	return own
}

// admitBusySeconds is the remaining front-door occupancy of the entry
// in service, the fixed part of the projected wait.
func (s *Service) admitBusySeconds(now sim.Time) float64 {
	if !s.admitServing || s.admitBusyUntil <= now {
		return 0
	}
	return s.admitBusyUntil.Sub(now).Seconds()
}

// admitServe starts serving the lowest-finish-tag entry when the door
// is idle; each completion expands the submission and chains to the
// next entry.
func (s *Service) admitServe(now sim.Time) {
	if s.admitServing {
		return
	}
	e := s.admit.Pop()
	if e == nil {
		return
	}
	s.admitServing = true
	done := now.Add(sim.Duration(e.Cost))
	s.admitBusyUntil = done
	s.eng.At(done, (*served)(e.Payload.(*Batch)))
}

// served is the admit door finishing a queued request: the request
// drains and the door serves the next.
type served Batch

func (b *served) Fire() {
	s := b.svc
	s.admitServing = false
	s.ingestInstruments().accepted.Inc()
	s.drain((*Batch)(b))
	s.admitServe(s.eng.Now())
}

// shed accounts one rejected submission: exactly one StageShed journal
// event (the submission's terminal) and a per-reason counter. The
// record is dropped: a shed request never becomes a batch.
func (s *Service) shed(b *Batch, rej *admit.Rejection) {
	var counter string
	switch rej.Reason {
	case admit.ReasonQuota:
		s.shedQuota++
		counter = "lattice_admit_shed_quota_total"
	default:
		s.shedOverload++
		counter = "lattice_admit_shed_overload_total"
	}
	s.obs.Record("", "", obs.StageShed, "ingest", s.shedDetail(b, rej))
	s.obs.Counter(counter, "Submissions rejected by the admission layer").Inc()
}

// shedDetail is the shed event's detail: "<reason>: <n> replicates for
// <email> via <origin>; retry after <whole seconds>s".
func (s *Service) shedDetail(b *Batch, rej *admit.Rejection) string {
	var buf [128]byte
	d := append(append(buf[:0], rej.Reason...), ": "...)
	d = append(append(appendSubmission(d, &b.Submission), " via "...), b.Origin...)
	d = appendSeconds(append(d, "; retry after "...), rej.RetryAfter.Seconds())
	return s.names.String(append(d, 's'))
}
