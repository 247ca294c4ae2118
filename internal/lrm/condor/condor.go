// Package condor simulates a Condor pool: institutional desktop
// machines scavenged for cycles while their owners are away ("Condor —
// a hunter of idle workstations"). Machines alternate between
// owner-present and owner-absent periods; a grid job executes only
// while the owner is away and is preempted (killed and requeued) the
// moment the owner returns. This is the canonical "unstable" resource
// of the paper's stability criterion (PAPER.md §1 item 2: "unstable
// resources only take jobs estimated under n = 10 hours"): short jobs
// slip into idle windows, long jobs thrash. Pools run the vanilla
// universe — a preempted job restarts from scratch; the paper gates
// long jobs off such pools by estimate instead of checkpoint-cycling
// them (experiment E14 models the declined alternative by hand).
package condor

import (
	"fmt"
	"slices"

	"lattice/internal/lrm"
	"lattice/internal/obs"
	"lattice/internal/sim"
)

// Machine describes one workstation in the pool.
type Machine struct {
	// Speed is the machine's execution rate relative to the
	// reference computer (1.0 = reference).
	Speed float64
	// MemoryMB is usable memory for grid jobs.
	MemoryMB int
	// Platform is the machine's OS/architecture.
	Platform lrm.Platform
	// MeanOwnerAway and MeanOwnerBusy parameterize the exponential
	// owner-activity process: expected idle (scavengeable) and busy
	// period lengths.
	MeanOwnerAway sim.Duration
	MeanOwnerBusy sim.Duration
}

// Config describes a pool.
type Config struct {
	Name     string
	Machines []Machine
	// Software available on all pool machines.
	Software []string
	// MaxRequeues bounds how many times one job may be preempted
	// before the pool gives up and fails it (0 = unlimited; real
	// Condor requeues indefinitely, which for long jobs on busy pools
	// means never finishing).
	MaxRequeues int
}

type machineState struct {
	Machine
	ownerPresent bool
	running      *running
}

type running struct {
	job       *lrm.Job
	startedAt sim.Time
	doneEvent sim.EventID
	wallEvent sim.EventID
}

type queued struct {
	job *lrm.Job
	// queuedAt is when this wait began (submission or last preemption).
	queuedAt sim.Time
}

// Pool is a Condor pool LRM.
type Pool struct {
	eng      *sim.Engine
	rng      *sim.RNG
	cfg      Config
	machines []*machineState
	// nodeMemoryMB and platforms (first-seen order) summarize the
	// machine list for Info; it is fixed at construction, so they are
	// computed there once and the platform slice is shared by every
	// answer.
	nodeMemoryMB int
	platforms    []lrm.Platform
	queue        []*queued
	stats        lrm.Stats
	ins          *lrm.Instruments
	// requeueCounts tracks per-job preemption counts across requeues.
	requeueCounts map[string]int
}

// SetObs wires the pool to an observability hub: queue waits,
// executions, and preemptions become per-resource series and journal
// events.
func (p *Pool) SetObs(o *obs.Obs) { p.ins = lrm.NewInstruments(o, p.cfg.Name) }

// New builds a pool and starts every machine's owner-activity process.
// Machines begin with the owner present and become available after
// their first busy period elapses.
func New(eng *sim.Engine, rng *sim.RNG, cfg Config) (*Pool, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("condor: pool has no name")
	}
	if len(cfg.Machines) == 0 {
		return nil, fmt.Errorf("condor: pool %s has no machines", cfg.Name)
	}
	p := &Pool{eng: eng, rng: rng, cfg: cfg, requeueCounts: make(map[string]int)}
	for i, m := range cfg.Machines {
		if m.Speed <= 0 {
			return nil, fmt.Errorf("condor: machine %d has non-positive speed", i)
		}
		ms := &machineState{Machine: m, ownerPresent: true}
		p.machines = append(p.machines, ms)
		p.nodeMemoryMB = max(p.nodeMemoryMB, m.MemoryMB)
		if !slices.Contains(p.platforms, m.Platform) {
			p.platforms = append(p.platforms, m.Platform)
		}
		p.scheduleOwnerDeparture(ms)
	}
	return p, nil
}

// Name implements lrm.LRM.
func (p *Pool) Name() string { return p.cfg.Name }

func (p *Pool) scheduleOwnerDeparture(m *machineState) {
	p.eng.Schedule(p.rng.ExpDuration(m.MeanOwnerBusy), func() {
		m.ownerPresent = false
		p.scheduleOwnerReturn(m)
		p.tryDispatch()
	})
}

func (p *Pool) scheduleOwnerReturn(m *machineState) {
	p.eng.Schedule(p.rng.ExpDuration(m.MeanOwnerAway), func() {
		m.ownerPresent = true
		if m.running != nil {
			p.preempt(m)
		}
		p.scheduleOwnerDeparture(m)
	})
}

// preempt kills the running job and requeues it: pools run Condor's
// vanilla universe, so all progress is lost.
func (p *Pool) preempt(m *machineState) {
	r := m.running
	m.running = nil
	p.eng.Cancel(r.doneEvent)
	p.eng.Cancel(r.wallEvent)
	elapsed := p.eng.Now().Sub(r.startedAt)
	p.stats.Preemptions++
	p.ins.JobPreempted(r.job, "owner returned")
	p.stats.WastedCPU += elapsed.Seconds() * m.Speed
	requeues := p.requeueCounts[r.job.ID] + 1
	p.requeueCounts[r.job.ID] = requeues
	if p.cfg.MaxRequeues > 0 && requeues > p.cfg.MaxRequeues {
		p.stats.Failed++
		p.ins.JobFailed(r.job)
		delete(p.requeueCounts, r.job.ID)
		if r.job.OnFail != nil {
			r.job.OnFail(p.eng.Now(), "condor: requeue limit exceeded")
		}
		return
	}
	p.queue = append(p.queue, &queued{job: r.job, queuedAt: p.eng.Now()})
	// The machine is owner-occupied now; another machine may take it.
	p.tryDispatch()
}

// Submit implements lrm.LRM.
func (p *Pool) Submit(j *lrm.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if j.NeedsMPI {
		return fmt.Errorf("condor: pool %s cannot run MPI jobs", p.cfg.Name)
	}
	p.stats.TotalQueued++
	p.queue = append(p.queue, &queued{job: j, queuedAt: p.eng.Now()})
	if len(p.queue) > p.stats.MaxQueueSeen {
		p.stats.MaxQueueSeen = len(p.queue)
	}
	p.tryDispatch()
	return nil
}

// Cancel implements lrm.LRM.
func (p *Pool) Cancel(jobID string) bool {
	for i, q := range p.queue {
		if q.job.ID == jobID {
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			delete(p.requeueCounts, jobID)
			return true
		}
	}
	for _, m := range p.machines {
		if m.running != nil && m.running.job.ID == jobID {
			p.eng.Cancel(m.running.doneEvent)
			p.eng.Cancel(m.running.wallEvent)
			m.running = nil
			delete(p.requeueCounts, jobID)
			p.tryDispatch()
			return true
		}
	}
	return false
}

// fits reports whether the job can run on machine m.
func (p *Pool) fits(j *lrm.Job, m *machineState) bool {
	if j.MemoryMB > m.MemoryMB {
		return false
	}
	return lrm.HasPlatform(j.Platforms, m.Platform) && lrm.HasSoftware(j.Software, p.cfg.Software)
}

// tryDispatch matches queued jobs to idle owner-absent machines, FIFO
// with first-fit (Condor matchmaking at pool granularity).
func (p *Pool) tryDispatch() {
	for qi := 0; qi < len(p.queue); {
		q := p.queue[qi]
		var target *machineState
		for _, m := range p.machines {
			if !m.ownerPresent && m.running == nil && p.fits(q.job, m) {
				target = m
				break
			}
		}
		if target == nil {
			qi++
			continue
		}
		p.queue = append(p.queue[:qi], p.queue[qi+1:]...)
		p.start(q, target)
	}
}

func (p *Pool) start(q *queued, m *machineState) {
	j := q.job
	r := &running{job: j, startedAt: p.eng.Now()}
	m.running = r
	p.ins.JobStarted(j, p.eng.Now().Sub(q.queuedAt))
	dur := j.RuntimeOn(m.Speed)
	r.doneEvent = p.eng.Schedule(dur, func() {
		m.running = nil
		p.eng.Cancel(r.wallEvent)
		p.stats.Completed++
		p.stats.CPUSeconds += dur.Seconds() * m.Speed
		p.ins.JobCompleted(j)
		delete(p.requeueCounts, j.ID)
		if j.OnComplete != nil {
			j.OnComplete(p.eng.Now())
		}
		p.tryDispatch()
	})
	if j.WallLimit > 0 && j.WallLimit < dur {
		r.wallEvent = p.eng.Schedule(j.WallLimit, func() {
			m.running = nil
			p.eng.Cancel(r.doneEvent)
			p.stats.Failed++
			p.stats.WastedCPU += j.WallLimit.Seconds() * m.Speed
			p.ins.JobFailed(j)
			delete(p.requeueCounts, j.ID)
			if j.OnFail != nil {
				j.OnFail(p.eng.Now(), "condor: wall clock limit exceeded")
			}
			p.tryDispatch()
		})
	}
}

// Info implements lrm.LRM.
func (p *Pool) Info() lrm.Info {
	info := lrm.Info{
		Name:         p.cfg.Name,
		Kind:         "condor",
		TotalCPUs:    len(p.machines),
		NodeMemoryMB: p.nodeMemoryMB,
		Platforms:    p.platforms,
		Software:     p.cfg.Software,
		Stable:       false,
		MPI:          false,
		QueuedJobs:   len(p.queue),
	}
	for _, m := range p.machines {
		if m.running != nil {
			info.RunningJobs++
		} else if !m.ownerPresent {
			info.FreeCPUs++
		}
	}
	return info
}

// Stats implements lrm.LRM.
func (p *Pool) Stats() lrm.Stats { return p.stats }
