// Package boinc simulates a BOINC volunteer-computing project: a
// server that manages workunits with deadlines, reissue and optional
// redundancy, and a population of volunteer hosts that fetch work,
// compute while their owners let them, checkpoint across availability
// gaps, and sometimes disappear entirely. It is the desktop-grid half
// of the paper's two-model system and the substrate for its
// BOINC-specific scheduling experiments (deadline selection from
// runtime estimates, work-request sizing, reissue behaviour).
//
// A project runs at one operating point, that of a typical small BOINC
// project (PAPER.md §1 item 4b has the deadline and the work-request
// size come from the runtime estimate; these are what applies around
// it): a workunit validates on its first returned result and fails
// back to the grid after 8 issues (maxIssues); a job without a deadline
// gets a week (defaultDelayBound) and one without an estimate is sized
// at 4 h (fallbackEstimateSeconds); a work request is granted at most
// 64 results (maxTasksPerRPC) and never one the host's duty cycle says
// it would return late; an idle client polls every 4 h
// (idlePollInterval). The generated host population's shape (speeds,
// availability, buffer) is fixed in population.go.
package boinc

import (
	"lattice/internal/lrm"
	"lattice/internal/sim"
)

// Host is one volunteer computer attached to the project.
type Host struct {
	ID int
	// Speed relative to the reference computer while computing.
	Speed float64
	// MemoryMB bounds the workunits the host can accept.
	MemoryMB int
	Platform lrm.Platform
	// MeanOn and MeanOff parameterize the exponential availability
	// process: periods during which BOINC may compute vs periods the
	// machine is off or the user has suspended computation.
	MeanOn, MeanOff sim.Duration
	// BufferSeconds is how much estimated work (in local execution
	// seconds) the client tries to keep queued.
	BufferSeconds float64
	// ReportLatency is the extra delay between finishing a task and
	// the next scheduler connection that reports it.
	ReportLatency sim.Duration
	// PDetach is the per-off-period probability that the volunteer
	// leaves the project for good, taking queued work with them —
	// the reason deadlines and reissue exist.
	PDetach float64

	srv      *Server
	on       bool
	detached bool
	// counted is the state this host is entered under in srv.pool.
	counted hostState
	tasks   []*task // head is the running task
	doneEv  sim.EventID
	pollEv  sim.EventID
	// resumeAt tracks when the running task last (re)started.
	startedAt sim.Time
	// The host's engine handlers, bound once in attach: handing the
	// engine h.turnOn afresh would allocate a method value per event.
	onFn, offFn, pollFn, doneFn sim.Handler
}

// task is one assigned result instance being computed.
type task struct {
	res           *result
	remainingWork float64
}

// hostState is the part of a host's state the pool summary counts. A
// detached host is off and holds nothing, so it counts nowhere.
type hostState struct {
	on   bool // powered on and attached
	busy bool // holds at least one task
}

// tally re-enters the host in the server's pool counts under its
// current state. Every change to h.on or to whether h.tasks is empty
// is followed by a call before the server lock is released.
func (h *Host) tally() {
	now := hostState{on: h.on, busy: len(h.tasks) > 0}
	if now == h.counted {
		return
	}
	h.srv.pool.count(h.counted, -1)
	h.srv.pool.count(now, +1)
	h.counted = now
}

// detach takes a host that was just switched off out of the project
// for good: its queued tasks are lost and will time out on the server.
func (h *Host) detach() {
	h.detached = true
	h.srv.stats.Detached++
	for _, t := range h.tasks {
		t.res.lost = true
	}
	h.tasks = nil
	h.tally()
	h.srv.summarizeAttached()
}

// attach wires the host into the server's simulation.
func (h *Host) attach(s *Server) {
	h.srv = s
	h.on = false
	h.onFn, h.offFn, h.pollFn, h.doneFn = h.turnOn, h.turnOff, h.poll, h.taskDone
	s.eng.Schedule(s.rng.ExpDuration(h.MeanOff), h.onFn)
}

// turnOn, turnOff, poll and taskDone are engine-scheduled entry points:
// they run on the engine goroutine and take the server lock before
// touching host or server state.
func (h *Host) turnOn() {
	h.srv.mu.Lock()
	defer h.srv.mu.Unlock()
	if h.detached {
		return
	}
	h.on = true
	h.tally()
	h.srv.eng.Schedule(h.srv.rng.ExpDuration(h.MeanOn), h.offFn)
	h.maybeFetchWork()
	h.resume()
}

func (h *Host) turnOff() {
	h.srv.mu.Lock()
	defer h.srv.mu.Unlock()
	if h.detached {
		return
	}
	h.on = false
	h.tally()
	h.suspend()
	if h.srv.rng.Bool(h.PDetach) {
		h.detach() // the volunteer leaves the project
		return
	}
	h.srv.eng.Schedule(h.srv.rng.ExpDuration(h.MeanOff), h.onFn)
}

// suspend checkpoints the running task (the paper's special GARLI
// build adds exactly this: BOINC-visible checkpointing so work
// survives client suspensions).
func (h *Host) suspend() {
	if h.doneEv != 0 {
		h.srv.eng.Cancel(h.doneEv)
		h.doneEv = 0
		elapsed := h.srv.eng.Now().Sub(h.startedAt)
		if len(h.tasks) > 0 {
			h.tasks[0].remainingWork -= elapsed.Seconds() * h.Speed * lrm.ReferenceCellsPerSecond
			if h.tasks[0].remainingWork < 0 {
				h.tasks[0].remainingWork = 0
			}
		}
	}
	if h.pollEv != 0 {
		h.srv.eng.Cancel(h.pollEv)
		h.pollEv = 0
	}
}

// resume continues the head task from its checkpoint. It is a no-op
// when a task is already executing.
func (h *Host) resume() {
	if !h.on || h.detached || h.doneEv != 0 {
		return
	}
	if len(h.tasks) == 0 {
		// Nothing to do: poll the scheduler periodically while on.
		if h.pollEv == 0 {
			h.pollEv = h.srv.eng.Schedule(idlePollInterval, h.pollFn)
		}
		return
	}
	h.startedAt = h.srv.eng.Now()
	dur := sim.Duration(h.tasks[0].remainingWork / (h.Speed * lrm.ReferenceCellsPerSecond))
	h.doneEv = h.srv.eng.Schedule(dur, h.doneFn)
}

// poll is an idle host's periodic scheduler contact.
func (h *Host) poll() {
	h.srv.mu.Lock()
	defer h.srv.mu.Unlock()
	h.pollEv = 0
	h.maybeFetchWork()
	h.resume()
}

// taskDone fires when the running task — still the head of h.tasks,
// since anything that displaces the head first cancels doneEv through
// suspend — has computed its last cell.
func (h *Host) taskDone() {
	h.srv.mu.Lock()
	defer h.srv.mu.Unlock()
	h.doneEv = 0
	res := h.tasks[0].res
	h.tasks = h.tasks[1:]
	h.tally()
	h.srv.stats.HostCPUSeconds += res.wu.job.Work / lrm.ReferenceCellsPerSecond
	// Report after the host's usual reporting latency.
	h.srv.eng.Schedule(h.ReportLatency, func() {
		srv := h.srv
		srv.mu.Lock()
		notify := srv.receiveResult(res)
		srv.mu.Unlock()
		if notify != nil {
			notify()
		}
	})
	h.maybeFetchWork()
	h.resume()
}

// queuedSeconds estimates the local execution seconds of queued work,
// using the server-provided estimates exactly as a BOINC client does.
func (h *Host) queuedSeconds() float64 {
	var s float64
	for _, t := range h.tasks {
		est := t.res.wu.job.EstimatedRefSeconds
		if est <= 0 {
			est = fallbackEstimateSeconds
		}
		s += est / h.Speed
	}
	return s
}

// maybeFetchWork issues a scheduler RPC when the buffer drops below
// its low-water mark (half the target), then requests enough to fill
// back to the target — the BOINC client's min/max buffer hysteresis,
// which keeps well-stocked clients from contacting the scheduler after
// every result.
func (h *Host) maybeFetchWork() {
	if !h.on || h.detached {
		return
	}
	queued := h.queuedSeconds()
	if queued > 0.5*h.BufferSeconds {
		return
	}
	h.srv.schedulerRPC(h, h.BufferSeconds-queued)
}
