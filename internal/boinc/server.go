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
	ResultsLate      int // returned after its deadline or its workunit's cancellation
	ResultsTimedOut  int // deadline passed, reissued
	SchedulerRPCs    int
	EmptyRPCs        int // RPCs that got no work
	Detached         int
	HostCPUSeconds   float64 // reference CPU-seconds computed by hosts
	WastedCPUSeconds float64 // computed but not needed (late/redundant)
	InfeasibleSkips  int
}

// workunit tracks one grid job inside the project. Until it validates,
// fails or is cancelled it is either on offer (in unsent, live nil) or
// out on one host (live set), never both: schedulerRPC takes it off
// offer as it issues, and only a deadline miss offers it again.
type workunit struct {
	job    *lrm.Job
	delay  sim.Duration
	issues int
	// live is the one issued result whose return counts.
	live *result
}

// result is one issued instance of a workunit. It is the event of the
// host reporting it, and (*deadline)(r) is its deadline timer. Once it
// is not its workunit's live result — its deadline passed, or the
// workunit was cancelled — it returns late and its deadline does
// nothing.
type result struct {
	wu   *workunit
	host *Host
	lost bool // host detached; will never return
}

// Server is the BOINC project server. It implements lrm.LRM so the
// meta-scheduler can treat the volunteer pool as one large (unstable)
// resource.
type Server struct {
	eng  *sim.Engine
	rng  *sim.RNG
	name string

	// mu guards all server and host state. The engine dispatches host
	// events on a single goroutine, but lrm.LRM callers (the
	// meta-scheduler, tests) may submit, cancel and read
	// statistics from other goroutines while the engine runs; every
	// engine event and every public method takes the lock
	// at entry. A job's Owner is told its outcome after the lock is
	// released, so it may re-enter the server.
	mu    sync.Mutex
	hosts []*Host
	// pool is what Info reports about the hosts, kept current instead
	// of recounted on every MDS poll: Host.tally maintains the counts,
	// and the memory ceiling and platform list — properties of the set
	// of attached hosts — change only in AttachHost and Host.detach.
	pool poolSummary
	// unsent holds the workunits on offer, FIFO.
	unsent []*workunit
	// byJob holds every workunit on offer or out on a host by its job
	// ID.
	byJob map[string]*workunit
	stats Stats
	obs   *obs.Obs
	ins   boincInstruments
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

// NewServer creates a project with no hosts attached. o, which may be
// nil, receives deadline misses, reissues and quorum validations as
// counters and journal events.
func NewServer(eng *sim.Engine, rng *sim.RNG, o *obs.Obs, name string) (*Server, error) {
	if name == "" {
		return nil, fmt.Errorf("boinc: project has no name")
	}
	pl := obs.L("project", name)
	return &Server{eng: eng, rng: rng, name: name, byJob: make(map[string]*workunit), obs: o, ins: boincInstruments{
		issued:    o.Counter("lattice_boinc_results_issued_total", "Result instances sent to volunteer hosts", pl),
		returned:  o.Counter("lattice_boinc_results_returned_total", "Result instances returned by hosts", pl),
		late:      o.Counter("lattice_boinc_results_late_total", "Results returned after reissue or completion (wasted)", pl),
		missed:    o.Counter("lattice_boinc_deadline_misses_total", "Results whose delay bound passed before return", pl),
		reissued:  o.Counter("lattice_boinc_reissues_total", "Workunits requeued after a deadline miss", pl),
		wuFailed:  o.Counter("lattice_boinc_workunits_failed_total", "Workunits failed back to the grid (issue limit)", pl),
		validated: o.Counter("lattice_boinc_quorum_validations_total", "Workunits that reached quorum and validated", pl),
	}}, nil
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
	return nil
}

// Cancel implements lrm.LRM: a workunit on offer leaves the offer, and
// one out on a host loses its live result, which will return late.
func (s *Server) Cancel(jobID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	wu, ok := s.byJob[jobID]
	if !ok {
		return false
	}
	delete(s.byJob, jobID)
	if wu.live == nil {
		i := slices.Index(s.unsent, wu)
		s.unsent = slices.Delete(s.unsent, i, i+1)
	}
	wu.live = nil
	return true
}

// forget drops a workunit that validated or failed from byJob, unless a
// newer workunit for the same job has taken its entry.
func (s *Server) forget(wu *workunit) {
	if s.byJob[wu.job.ID] == wu {
		delete(s.byJob, wu.job.ID)
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
		if wu.job.MemoryMB > h.MemoryMB {
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
		// Its result is live: the workunit leaves the offer until a
		// deadline miss.
		s.unsent = append(s.unsent[:i], s.unsent[i+1:]...)
	}
	if issued == 0 {
		s.stats.EmptyRPCs++
	}
}

// issue sends one result instance of wu to host h, as its live result,
// and arms the deadline timer.
func (s *Server) issue(wu *workunit, h *Host) {
	r := &result{wu: wu, host: h}
	wu.issues++
	wu.live = r
	s.stats.ResultsIssued++
	s.ins.issued.Inc()
	h.tasks = append(h.tasks, task{res: r, remainingWork: wu.job.Work})
	h.tally()
	if len(h.tasks) == 1 {
		h.resume()
	}
	s.eng.After(wu.delay, (*deadline)(r))
}

// deadline is a result's deadline timer.
type deadline result

func (d *deadline) Fire() {
	s := d.host.srv
	s.mu.Lock()
	failed := s.deadlinePassed((*result)(d))
	s.mu.Unlock()
	if failed != nil && failed.Owner != nil {
		failed.Owner.Fail(failed, s.eng.Now(), "boinc: too many errors (may have bug)")
	}
}

// Fire is the host reporting the result.
func (r *result) Fire() {
	s := r.host.srv
	s.mu.Lock()
	done := s.receiveResult(r)
	s.mu.Unlock()
	if done != nil && done.Owner != nil {
		done.Owner.Complete(done, s.eng.Now())
	}
}

// deadlinePassed reissues a workunit whose live result r never came
// back. Called with s.mu held; it returns the job when the workunit is
// out of issues and failed, for its owner to be told after the lock is
// released.
func (s *Server) deadlinePassed(r *result) (failed *lrm.Job) {
	wu := r.wu
	if wu.live != r {
		return nil // returned, or cancelled
	}
	wu.live = nil
	s.stats.ResultsTimedOut++
	s.ins.missed.Inc()
	// Drop the task from the host queue if the host still holds it.
	if !r.lost {
		r.host.dropTask(r)
	}
	if wu.issues >= maxIssues {
		s.stats.WorkunitsFailed++
		s.ins.wuFailed.Inc()
		s.forget(wu)
		return wu.job
	}
	// Back on offer for reissue.
	s.ins.reissued.Inc()
	s.obs.Record(wu.job.Batch, wu.job.ID, obs.StageReissue, s.name, reissueDetails[wu.issues])
	s.unsent = append(s.unsent, wu)
	return nil
}

// reissueDetails[i] is the journal detail of a reissue after i issues
// (1 to maxIssues−1), built once so that a reissue formats nothing.
var reissueDetails = func() (d [maxIssues]string) {
	for i := range d {
		d[i] = fmt.Sprintf("deadline passed, issue %d/%d", i, maxIssues)
	}
	return d
}()

// dropTask removes a timed-out task from the host's queue (the client
// would abort it at its next scheduler contact).
func (h *Host) dropTask(r *result) {
	for i, t := range h.tasks {
		if t.res == r {
			running := i == 0 && h.doneEv != 0
			if running {
				h.suspend()
			}
			h.tasks = slices.Delete(h.tasks, i, i+1)
			h.tally()
			if running {
				h.resume()
			}
			return
		}
	}
}

// receiveResult handles a returned result. Called with s.mu held; it
// returns the job when the workunit just validated, for its owner to
// be told after the lock is released.
func (s *Server) receiveResult(r *result) (done *lrm.Job) {
	s.stats.ResultsReturned++
	s.ins.returned.Inc()
	wu := r.wu
	if wu.live != r {
		// Arrived after its deadline or a cancel: wasted computation.
		s.stats.ResultsLate++
		s.ins.late.Inc()
		s.stats.WastedCPUSeconds += wu.job.Work / lrm.ReferenceCellsPerSecond
		return nil
	}
	wu.live = nil
	s.forget(wu)
	s.stats.WorkunitsDone++
	s.ins.validated.Inc()
	// The first returned result validates the workunit; the detail is
	// the journal's "returned/needed" wording.
	s.obs.Record(wu.job.Batch, wu.job.ID, obs.StageQuorum, s.name, "1/1 results")
	return wu.job
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
