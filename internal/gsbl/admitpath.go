package gsbl

import (
	"fmt"

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
// the submission and deterministically re-sheds it.
func (s *Service) admitEnqueue(r Request, now sim.Time) {
	if rej := s.admit.TakeQuota(r.Sub.UserEmail, float64(r.Sub.Replicates), now); rej != nil {
		s.shed(&r, rej)
		return
	}
	s.admit.Push(r.Sub.UserEmail, s.ingest.cost(&r.Sub).Seconds(), &queued{Request: r, arrived: now})
	s.ingestDepth++
	for {
		victim, rej := s.admit.Overflow(s.admitBusySeconds(now))
		if victim == nil {
			break
		}
		s.ingestDepth--
		s.shed(&victim.Payload.(*queued).Request, rej)
	}
	if ins := s.ingestInstruments(); ins != nil {
		ins.depth.Set(float64(s.ingestDepth))
	}
	s.admitServe(now)
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
	it := e.Payload.(*queued)
	s.admitServing = true
	done := now.Add(sim.Duration(e.Cost))
	s.admitBusyUntil = done
	s.eng.ScheduleAt(done, func() {
		s.admitServing = false
		if ins := s.ingestInstruments(); ins != nil {
			ins.accepted.Inc()
		}
		s.drain(it)
		s.admitServe(s.eng.Now())
	})
}

// shed accounts one rejected submission: exactly one StageShed journal
// event (the submission's terminal), a per-reason counter, and the
// caller's callback fired with the typed *admit.Rejection so portals
// can answer 429 with Retry-After.
func (s *Service) shed(r *Request, rej *admit.Rejection) {
	var counter string
	switch rej.Reason {
	case admit.ReasonQuota:
		s.shedQuota++
		counter = "lattice_admit_shed_quota_total"
	default:
		s.shedOverload++
		counter = "lattice_admit_shed_overload_total"
	}
	s.obs.Record("", "", obs.StageShed, "ingest",
		fmt.Sprintf("%s: %d replicates for %s via %s; retry after %.0fs",
			rej.Reason, r.Sub.Replicates, r.Sub.UserEmail, r.Origin, rej.RetryAfter.Seconds()))
	s.obs.Counter(counter, "Submissions rejected by the admission layer").Inc()
	if r.OnAccepted != nil {
		r.OnAccepted(nil, rej)
	}
}
