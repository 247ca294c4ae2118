package boinc

import (
	"fmt"
	"slices"
	"sync"

	"lattice/internal/lrm"
	"lattice/internal/obs"
	"lattice/internal/sim"
)

// Project policy (see the package comment). No caller ever ran a
// project anywhere else, so these are not options.
const (
	// defaultDelayBound is the workunit deadline applied when a job
	// carries none. Before runtime estimates were integrated, the
	// paper's operators "had to fill in this value manually for each
	// batch of work".
	defaultDelayBound = sim.Week
	// maxIssues bounds how many instances of one workunit may be
	// issued before the workunit is failed back to the grid. A workunit
	// validates on its first returned result: the paper's GARLI project
	// relies on its validation mode and reissue, not on multi-result
	// quorums.
	maxIssues = 8
	// idlePollInterval is how often an idle attached client asks for
	// work.
	idlePollInterval = 4 * sim.Hour
	// fallbackEstimateSeconds sizes work requests for jobs without
	// runtime estimates (the pre-estimate era's guess).
	fallbackEstimateSeconds = 4 * 3600.0
	// maxTasksPerRPC bounds how many results one work request may
	// receive (BOINC's max_wus_to_send), preventing a single fast
	// client from hoarding the queue.
	maxTasksPerRPC = 64
)

// Stats aggregates project behaviour for the experiments.
type Stats struct {
	WorkunitsCreated int
	WorkunitsDone    int
	WorkunitsFailed  int
	ResultsIssued    int
	ResultsReturned  int
	ResultsLate      int // returned after the workunit completed
	ResultsTimedOut  int // deadline passed, reissued
	SchedulerRPCs    int
	EmptyRPCs        int // RPCs that got no work
	Detached         int
	HostCPUSeconds   float64 // reference CPU-seconds computed by hosts
	WastedCPUSeconds float64 // computed but not needed (late/redundant)
	InfeasibleSkips  int
}

// workunit tracks one grid job inside the project.
type workunit struct {
	job     *lrm.Job
	delay   sim.Duration
	issues  int
	done    bool
	failed  bool
	pending []*result // issued, not yet returned
}

// result is one issued instance of a workunit.
type result struct {
	wu       *workunit
	host     *Host
	issuedAt sim.Time
	deadline sim.Time
	timedOut bool
	lost     bool // host detached; will never return
}

// Server is the BOINC project server. It implements lrm.LRM so the
// grid's scheduler adapter can treat the volunteer pool as one large
// (unstable) resource.
type Server struct {
	eng  *sim.Engine
	rng  *sim.RNG
	name string

	// mu guards all server and host state. The engine dispatches host
	// events on a single goroutine, but lrm.LRM callers (grid
	// adapters, the meta-scheduler, tests) may submit, cancel and read
	// statistics from other goroutines while the engine runs; every
	// engine-scheduled closure and every public method takes the lock
	// at entry. Job callbacks (OnComplete/OnFail) are invoked after
	// the lock is released so handlers may re-enter the server.
	mu    sync.Mutex
	hosts []*Host
	// pool is what Info reports about the hosts, kept current instead
	// of recounted on every MDS poll: Host.tally maintains the counts,
	// and the memory ceiling and platform list — properties of the set
	// of attached hosts — change only in AttachHost and Host.detach.
	pool poolSummary
	// unsent holds workunits with capacity for further issues, FIFO.
	unsent  []*workunit
	byJob   map[string]*workunit
	stats   Stats
	obs     *obs.Obs
	ins     boincInstruments
	durable Durability
}

// poolSummary is the host population as MDS sees it.
type poolSummary struct {
	on     int // attached hosts currently on: the deliverable parallelism
	idle   int // of those, hosts holding no task
	busy   int // attached hosts holding at least one task, on or off
	memory int // largest MemoryMB among attached hosts
	// platforms lists attached hosts' platforms in first-attached
	// order. Info hands the slice out, so it is replaced, never
	// written in place.
	platforms []lrm.Platform
}

// count adds (d = +1) or removes (d = -1) one host in state st.
func (p *poolSummary) count(st hostState, d int) {
	if st.on {
		p.on += d
		if !st.busy {
			p.idle += d
		}
	}
	if st.busy {
		p.busy += d
	}
}

// include folds one attached host into the memory ceiling and the
// platform list.
func (p *poolSummary) include(h *Host) {
	p.memory = max(p.memory, h.MemoryMB)
	if !slices.Contains(p.platforms, h.Platform) {
		p.platforms = append(slices.Clip(p.platforms), h.Platform)
	}
}

// Durability is the write-ahead-log hook for workunit and result
// state transitions (created, issued, timeout, failed, returned,
// late, done). Called with s.mu held; implementations must not call
// back into the server.
type Durability interface {
	Workunit(at sim.Time, job, state, detail string)
}

// SetDurable installs the durability hook (nil disables it).
func (s *Server) SetDurable(d Durability) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.durable = d
}

// durably records one workunit transition when a hook is installed.
// Callers hold s.mu.
func (s *Server) durably(job, state, detail string) {
	if s.durable != nil {
		s.durable.Workunit(s.eng.Now(), job, state, detail)
	}
}

// boincInstruments holds the project's metric handles; all are
// nil-safe, so an un-wired server records nothing.
type boincInstruments struct {
	issued    *obs.Counter
	returned  *obs.Counter
	late      *obs.Counter
	missed    *obs.Counter
	reissued  *obs.Counter
	wuFailed  *obs.Counter
	validated *obs.Counter
}

// SetObs wires the project to an observability hub: deadline misses,
// reissues, and quorum validations become counters and journal events.
func (s *Server) SetObs(o *obs.Obs) {
	pl := obs.L("project", s.name)
	s.obs = o
	s.ins = boincInstruments{
		issued:    o.Counter("lattice_boinc_results_issued_total", "Result instances sent to volunteer hosts", pl),
		returned:  o.Counter("lattice_boinc_results_returned_total", "Result instances returned by hosts", pl),
		late:      o.Counter("lattice_boinc_results_late_total", "Results returned after reissue or completion (wasted)", pl),
		missed:    o.Counter("lattice_boinc_deadline_misses_total", "Results whose delay bound passed before return", pl),
		reissued:  o.Counter("lattice_boinc_reissues_total", "Workunits requeued after a deadline miss", pl),
		wuFailed:  o.Counter("lattice_boinc_workunits_failed_total", "Workunits failed back to the grid (issue limit)", pl),
		validated: o.Counter("lattice_boinc_quorum_validations_total", "Workunits that reached quorum and validated", pl),
	}
}

// NewServer creates a project with no hosts attached.
func NewServer(eng *sim.Engine, rng *sim.RNG, name string) (*Server, error) {
	if name == "" {
		return nil, fmt.Errorf("boinc: project has no name")
	}
	return &Server{eng: eng, rng: rng, name: name, byJob: make(map[string]*workunit)}, nil
}

// AttachHost adds a volunteer host to the project and starts its
// availability process. It schedules engine events, so it must be
// called from the setup phase or the engine goroutine, not
// concurrently with the engine run.
func (s *Server) AttachHost(h *Host) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hosts = append(s.hosts, h)
	s.pool.include(h)
	h.attach(s)
}

// summarizeAttached recomputes the pool's memory ceiling and platform
// list after a host has left. Callers hold s.mu.
func (s *Server) summarizeAttached() {
	s.pool.memory, s.pool.platforms = 0, nil
	for _, h := range s.hosts {
		if !h.detached {
			s.pool.include(h)
		}
	}
}

// NumHosts returns the number of hosts ever attached.
func (s *Server) NumHosts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.hosts)
}

// Churn forcibly detaches up to n attached hosts, in attachment
// order, and returns how many actually left — the fault injector's
// host-churn burst (a project outage, a popular competing project, a
// school holiday emptying a lab). Queued work on departing hosts is
// lost and will be reissued by the server when its deadlines pass,
// exactly as organic PDetach departures are.
func (s *Server) Churn(n int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	left := 0
	for _, h := range s.hosts {
		if left >= n {
			break
		}
		if h.detached {
			continue
		}
		h.suspend()
		h.on = false
		h.detach()
		left++
	}
	return left
}

// activeHosts returns the number of hosts that have not detached.
func (s *Server) activeHosts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, h := range s.hosts {
		if !h.detached {
			n++
		}
	}
	return n
}

// Name implements lrm.LRM.
func (s *Server) Name() string { return s.name }

// Submit implements lrm.LRM: the job becomes a workunit.
func (s *Server) Submit(j *lrm.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if j.NeedsMPI {
		return fmt.Errorf("boinc: volunteer hosts cannot run MPI jobs")
	}
	delay := j.DelayBound
	if delay <= 0 {
		delay = defaultDelayBound
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	wu := &workunit{job: j, delay: delay}
	s.byJob[j.ID] = wu
	s.unsent = append(s.unsent, wu)
	s.stats.WorkunitsCreated++
	s.durably(j.ID, "created", "")
	return nil
}

// Cancel implements lrm.LRM.
func (s *Server) Cancel(jobID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	wu, ok := s.byJob[jobID]
	if !ok || wu.done || wu.failed {
		return false
	}
	wu.failed = true // no further issues; in-flight results discarded
	delete(s.byJob, jobID)
	s.removeUnsent(wu)
	return true
}

func (s *Server) removeUnsent(wu *workunit) {
	for i, u := range s.unsent {
		if u == wu {
			s.unsent = append(s.unsent[:i], s.unsent[i+1:]...)
			return
		}
	}
}

// schedulerRPC serves a work request of wantSeconds local execution
// seconds from host h.
func (s *Server) schedulerRPC(h *Host, wantSeconds float64) {
	s.stats.SchedulerRPCs++
	granted := 0.0
	issued := 0
	for i := 0; i < len(s.unsent) && granted < wantSeconds && issued < maxTasksPerRPC; {
		wu := s.unsent[i]
		if wu.done || wu.failed {
			s.unsent = append(s.unsent[:i], s.unsent[i+1:]...)
			continue
		}
		if !s.eligible(h, wu) {
			i++
			continue
		}
		est := wu.job.EstimatedRefSeconds
		if est <= 0 {
			est = fallbackEstimateSeconds
		}
		localEst := est / h.Speed
		// BOINC's deadline check: the effective progress rate is
		// diluted by the host's duty cycle; skip hosts that would blow
		// the deadline.
		duty := float64(h.MeanOn) / float64(h.MeanOn+h.MeanOff)
		if sim.Duration(localEst/duty) > wu.delay {
			s.stats.InfeasibleSkips++
			i++
			continue
		}
		s.issue(wu, h)
		granted += localEst
		issued++
		// One live instance is in flight; stop offering this workunit
		// until a deadline miss frees it up.
		s.unsent = append(s.unsent[:i], s.unsent[i+1:]...)
	}
	if issued == 0 {
		s.stats.EmptyRPCs++
	}
}

// eligible checks platform/memory compatibility. (A workunit on offer
// has no instance in flight, so the host cannot already hold one.)
func (s *Server) eligible(h *Host, wu *workunit) bool {
	j := wu.job
	if j.MemoryMB > h.MemoryMB {
		return false
	}
	if len(j.Platforms) > 0 {
		ok := false
		for _, p := range j.Platforms {
			if p == h.Platform {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// issue sends one result instance of wu to host h and arms the
// deadline timer.
func (s *Server) issue(wu *workunit, h *Host) {
	r := &result{
		wu:       wu,
		host:     h,
		issuedAt: s.eng.Now(),
		deadline: s.eng.Now().Add(wu.delay),
	}
	wu.issues++
	wu.pending = append(wu.pending, r)
	s.stats.ResultsIssued++
	s.ins.issued.Inc()
	s.durably(wu.job.ID, "issued", fmt.Sprintf("issue %d", wu.issues))
	h.tasks = append(h.tasks, &task{res: r, remainingWork: wu.job.Work})
	h.tally()
	if len(h.tasks) == 1 {
		h.resume()
	}
	s.eng.ScheduleAt(r.deadline, func() {
		s.mu.Lock()
		notify := s.deadlinePassed(r)
		s.mu.Unlock()
		if notify != nil {
			notify()
		}
	})
}

// deadlinePassed reissues a workunit whose result never came back.
// Called with s.mu held; the returned closure (the job's failure
// callback, if the workunit is out of issues) must be invoked after
// the lock is released.
func (s *Server) deadlinePassed(r *result) (notify func()) {
	if r.timedOut {
		return nil
	}
	wu := r.wu
	if wu.done || wu.failed {
		return nil
	}
	// Still pending?
	stillPending := false
	for _, p := range wu.pending {
		if p == r {
			stillPending = true
			break
		}
	}
	if !stillPending {
		return nil
	}
	r.timedOut = true
	s.stats.ResultsTimedOut++
	s.ins.missed.Inc()
	s.durably(wu.job.ID, "timeout", fmt.Sprintf("issue %d", wu.issues))
	wu.removePending(r)
	// Drop the task from the host queue if the host still holds it.
	if !r.lost {
		r.host.dropTask(r)
	}
	if wu.issues >= maxIssues {
		wu.failed = true
		s.stats.WorkunitsFailed++
		s.ins.wuFailed.Inc()
		s.durably(wu.job.ID, "failed", "too many errors")
		s.removeUnsent(wu)
		if fail := wu.job.OnFail; fail != nil {
			now := s.eng.Now()
			return func() { fail(now, "boinc: too many errors (may have bug)") }
		}
		return nil
	}
	// Back to the unsent queue for reissue.
	s.ins.reissued.Inc()
	s.obs.Record(wu.job.Batch, wu.job.ID, obs.StageReissue, s.name,
		fmt.Sprintf("deadline passed, issue %d/%d", wu.issues, maxIssues))
	s.requeue(wu)
	return nil
}

func (s *Server) requeue(wu *workunit) {
	for _, u := range s.unsent {
		if u == wu {
			return
		}
	}
	s.unsent = append(s.unsent, wu)
}

func (wu *workunit) removePending(r *result) {
	for i, p := range wu.pending {
		if p == r {
			wu.pending = append(wu.pending[:i], wu.pending[i+1:]...)
			return
		}
	}
}

// dropTask removes a timed-out task from the host's queue (the client
// would abort it at its next scheduler contact).
func (h *Host) dropTask(r *result) {
	for i, t := range h.tasks {
		if t.res == r {
			if i == 0 && h.doneEv != 0 {
				h.suspend()
				h.tasks = h.tasks[1:]
				h.tally()
				h.resume()
			} else {
				h.tasks = append(h.tasks[:i], h.tasks[i+1:]...)
				h.tally()
			}
			return
		}
	}
}

// receiveResult handles a returned result. Called with s.mu held; the
// returned closure (the job's completion callback, if the workunit
// just validated) must be invoked after the lock is released.
func (s *Server) receiveResult(r *result) (notify func()) {
	s.stats.ResultsReturned++
	s.ins.returned.Inc()
	wu := r.wu
	s.durably(wu.job.ID, "returned", "")
	if r.timedOut || wu.done || wu.failed {
		// Arrived after reissue or completion: wasted computation.
		s.stats.ResultsLate++
		s.ins.late.Inc()
		s.durably(wu.job.ID, "late", "")
		s.stats.WastedCPUSeconds += wu.job.Work / lrm.ReferenceCellsPerSecond
		return nil
	}
	wu.removePending(r)
	wu.done = true
	s.stats.WorkunitsDone++
	s.ins.validated.Inc()
	// The first returned result validates the workunit; the detail is
	// the journal's and the WAL's "returned/needed" wording.
	s.durably(wu.job.ID, "done", "1/1 results")
	s.obs.Record(wu.job.Batch, wu.job.ID, obs.StageQuorum, s.name, "1/1 results")
	s.removeUnsent(wu)
	if complete := wu.job.OnComplete; complete != nil {
		now := s.eng.Now()
		return func() { complete(now) }
	}
	return nil
}

// Info implements lrm.LRM: the volunteer pool summarized as one
// resource for MDS. The pool's deliverable parallelism is the hosts
// currently on; attached-but-off machines are not capacity right now.
func (s *Server) Info() lrm.Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	return lrm.Info{
		Name:         s.name,
		Kind:         "boinc",
		Stable:       false,
		TotalCPUs:    s.pool.on,
		FreeCPUs:     s.pool.idle,
		RunningJobs:  s.pool.busy,
		NodeMemoryMB: s.pool.memory,
		Platforms:    s.pool.platforms,
		QueuedJobs:   len(s.unsent),
	}
}

// Stats implements lrm.LRM (extended BOINC statistics are available
// via ProjectStats).
func (s *Server) Stats() lrm.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return lrm.Stats{
		Completed:  s.stats.WorkunitsDone,
		Failed:     s.stats.WorkunitsFailed,
		CPUSeconds: s.stats.HostCPUSeconds - s.stats.WastedCPUSeconds,
		WastedCPU:  s.stats.WastedCPUSeconds,
	}
}

// ProjectStats returns the full BOINC accounting.
func (s *Server) ProjectStats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
