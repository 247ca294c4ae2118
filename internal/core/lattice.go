// Package core assembles The Lattice Project: the discrete-event
// engine, the resource federation (Condor pools, PBS/SGE clusters, the
// BOINC volunteer pool, and the homogeneous reference cluster), MDS
// monitoring, the grid-level scheduler with its random-forest runtime
// estimator, the GSBL service layer and the science portal — wired the
// way Sections II-VI describe.
package core

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"

	"lattice/internal/admit"
	"lattice/internal/boinc"
	"lattice/internal/dag"
	"lattice/internal/estimate"
	"lattice/internal/faults"
	"lattice/internal/grid/mds"
	"lattice/internal/gsbl"
	"lattice/internal/lrm"
	"lattice/internal/lrm/cluster"
	"lattice/internal/metasched"
	"lattice/internal/obs"
	"lattice/internal/portal"
	"lattice/internal/sim"
	"lattice/internal/wal"
	"lattice/internal/workload"
)

// ResourceSpec declares one resource of the federation.
type ResourceSpec struct {
	// Kind is "condor", "pbs" or "sge" (all built as one lrm/cluster)
	// or "boinc".
	Kind string
	Name string
	// Nodes counts a cluster's nodes, or a pool's machines.
	Nodes int
	Cores int // slots per node (sge; pbs and condor nodes have one)
	// Speed is the node speed vs reference; a pool's machines are
	// jittered ±20 % around it.
	Speed float64
	MemMB int
	// Condor-only: the mean lengths of every machine's owner-away and
	// owner-busy periods.
	MeanOwnerAway sim.Duration
	MeanOwnerBusy sim.Duration
	// BOINC-only population.
	Population *boinc.PopulationConfig
	MPI        bool
	Platform   lrm.Platform
}

// MDS liveness (PAPER.md §1 item 2): every resource's scheduler
// provider republishes each providerPeriod, and an entry not refreshed
// for mdsTTL marks its resource offline.
const (
	mdsTTL         = 5 * sim.Minute
	providerPeriod = sim.Minute
)

// Config describes a whole Lattice deployment.
type Config struct {
	Seed      int64
	Scheduler metasched.Config
	Estimator estimate.Config
	// TrainingJobs bootstraps the runtime model with this many
	// generated jobs (the paper's ~150-job matrix). 0 disables the
	// estimator entirely.
	TrainingJobs int
	Resources    []ResourceSpec
	// ReferenceCluster names the homogeneous speed-1.0 cluster used
	// for continuous retraining forks; empty disables retraining.
	ReferenceCluster string
	// Faults, when non-nil, wires the deterministic fault injector
	// between the scheduler and every resource: submits and results
	// pass through per-resource wrappers, MDS publications through a
	// dropping/staling sink, and the schedule's events fire on the
	// virtual clock. Nil leaves the production path untouched — no
	// wrapper, no extra RNG stream, bit-identical behaviour.
	Faults *faults.Schedule
	// Ingest, when non-zero, models the coordinator front door as a
	// serialized queue with per-submission virtual service time (see
	// gsbl.IngestConfig). Zero keeps the synchronous accept path —
	// bit-identical to pre-scale-out builds.
	Ingest gsbl.IngestConfig
	// Admit, when enabled, layers admission control over the ingest
	// queue: per-user token-bucket quotas, weighted fair-share ordering
	// instead of FIFO, and bounded-queue load shedding with computed
	// retry-after hints (see admit.Config). Requires Ingest to be
	// enabled. The zero value keeps the plain FIFO ingest path —
	// bit-identical to pre-admission builds.
	Admit admit.Config
	// IDPrefix qualifies batch and workflow IDs ("shard0-batch-000001")
	// so a cluster front router can attribute an ID to its coordinator
	// shard. Empty for single-coordinator deployments.
	IDPrefix string
	// ResourceWrap, when non-nil, wraps every resource after fault
	// wrapping and before MDS/scheduler registration — the seam the
	// cluster's lease gates install through. The engine is the
	// deployment's clock for time-dependent wrappers. Nil leaves
	// resources untouched.
	ResourceWrap func(eng *sim.Engine, name string, inner lrm.LRM) lrm.LRM
	// Durable, when non-empty, is a directory for crash-consistent
	// state: every input, and checkpoints of the journal's digest, are
	// appended to a write-ahead log there (see internal/wal), and
	// core.Recover resumes a killed deployment mid-batch by
	// re-executing from genesis. Empty disables durability entirely —
	// no recorder, no extra RNG draws, bit-identical to pre-durability
	// builds.
	Durable string
}

// DefaultConfig builds the paper's federation: four Condor pools, four
// clusters (two PBS, one SGE, one reference PBS), and a BOINC
// volunteer pool, at laptop-friendly scale.
func DefaultConfig(seed int64) Config {
	pop := boinc.DefaultPopulation(400)
	return Config{
		Seed:         seed,
		Scheduler:    metasched.DefaultConfig(),
		Estimator:    estimate.DefaultConfig(),
		TrainingJobs: 150,
		Resources: []ResourceSpec{
			{Kind: "condor", Name: "umd-condor", Nodes: 64, Speed: 1.1, MemMB: 2048,
				MeanOwnerAway: 6 * sim.Hour, MeanOwnerBusy: 3 * sim.Hour, Platform: lrm.LinuxX86},
			{Kind: "condor", Name: "bowie-condor", Nodes: 32, Speed: 0.8, MemMB: 1024,
				MeanOwnerAway: 8 * sim.Hour, MeanOwnerBusy: 4 * sim.Hour, Platform: lrm.WindowsX86},
			{Kind: "condor", Name: "coppin-condor", Nodes: 24, Speed: 0.7, MemMB: 1024,
				MeanOwnerAway: 5 * sim.Hour, MeanOwnerBusy: 5 * sim.Hour, Platform: lrm.WindowsX86},
			{Kind: "condor", Name: "si-condor", Nodes: 40, Speed: 1.0, MemMB: 2048,
				MeanOwnerAway: 10 * sim.Hour, MeanOwnerBusy: 6 * sim.Hour, Platform: lrm.DarwinX86},
			{Kind: "pbs", Name: "umd-hpc", Nodes: 64, Speed: 2.0, MemMB: 8192, MPI: true, Platform: lrm.LinuxX86},
			{Kind: "pbs", Name: "bigmem-cluster", Nodes: 8, Speed: 1.6, MemMB: 65536, Platform: lrm.LinuxX86},
			{Kind: "sge", Name: "bio-sge", Nodes: 16, Cores: 4, Speed: 1.4, MemMB: 16384, Platform: lrm.LinuxX86},
			{Kind: "pbs", Name: "reference-cluster", Nodes: 8, Speed: 1.0, MemMB: 4096, Platform: lrm.LinuxX86},
			// The volunteer pool's scheduling speed is its measured
			// *turnaround* speed: median host speed (~0.8×) diluted
			// by the typical duty cycle (~42%) — exactly what the
			// paper's benchmark-job procedure observes on BOINC.
			{Kind: "boinc", Name: "lattice-boinc", Population: &pop, Speed: 0.35},
		},
		ReferenceCluster: "reference-cluster",
	}
}

// DefaultFaultSchedule is a hostile-but-survivable schedule over the
// DefaultConfig federation: a day-long HPC outage, a flapping Condor
// pool, a gatekeeper that refuses half of all submissions for a day,
// an MDS blackout and a staleness burst, a volunteer exodus, and lossy
// and slow result channels on two pools. Everything the resilience
// layer exists for, firing in the first simulated week.
func DefaultFaultSchedule() *faults.Schedule {
	return &faults.Schedule{
		Events: []faults.Event{
			{At: sim.Time(6 * sim.Hour), Kind: faults.KindOutage, Resource: "umd-hpc", Duration: 24 * sim.Hour},
			{At: sim.Time(2 * sim.Hour), Kind: faults.KindSubmitFail, Resource: "bio-sge", Duration: 24 * sim.Hour, P: 0.5},
			{At: sim.Time(8 * sim.Hour), Kind: faults.KindMDSDrop, Resource: "bigmem-cluster", Duration: 2 * sim.Hour},
			{At: sim.Time(4 * sim.Hour), Kind: faults.KindMDSStale, Resource: "umd-condor", Duration: 6 * sim.Hour},
			{At: sim.Time(12 * sim.Hour), Kind: faults.KindChurn, Resource: "lattice-boinc", Hosts: 60},
			{At: 0, Kind: faults.KindLostResult, Resource: "si-condor", Duration: 5 * sim.Day, P: 0.25},
			{At: 0, Kind: faults.KindSlowResult, Resource: "bowie-condor", Duration: 5 * sim.Day, P: 0.5, Delay: 2 * sim.Hour},
		},
		Flaps: []faults.Flap{
			{Resource: "coppin-condor", MeanUp: 12 * sim.Hour, MeanDown: sim.Hour, Until: sim.Time(10 * sim.Day)},
		},
	}
}

// Lattice is a running grid system.
type Lattice struct {
	Engine    *sim.Engine
	Index     *mds.Index
	Scheduler *metasched.Scheduler
	Service   *gsbl.Service
	Mailer    *gsbl.Mailer
	Estimator *estimate.Estimator
	Portal    *portal.Portal
	Boinc     *boinc.Server // nil if no BOINC resource configured
	// Workflows is the stage-DAG workflow engine, mapping ready
	// stages onto the GSBL batch path.
	Workflows *dag.Engine
	// Obs is the deployment-wide observability hub: metrics and the
	// job-lifecycle journal (which /trace/ reads), all on virtual time.
	Obs *obs.Obs
	// Faults is the active fault injector (nil unless Config.Faults
	// was set).
	Faults *faults.Injector
	// Recovery describes the rebuild when this Lattice came from
	// Recover; nil on a fresh New.
	Recovery *RecoveryReport

	rng       *sim.RNG
	rec       *recorder
	resources map[string]lrm.LRM
	refName   string
	retrains  int
	// retrainErrs records failures of the continuous-retraining loop
	// (reference-cluster submits, observation feeds, rebuilds), which
	// run inside simulation callbacks with no caller to return to.
	retrainErrs []error
}

// New assembles and starts a Lattice deployment. With cfg.Durable set
// it also creates a fresh write-ahead log there and wires the
// durability recorder to the inputs and the journal; use Recover instead
// when the directory already holds state.
func New(cfg Config) (*Lattice, error) {
	l, err := build(cfg, nil)
	if err != nil {
		return nil, err
	}
	if l.rec != nil {
		lg, err := wal.Create(cfg.Durable, wal.Options{})
		if err != nil {
			return nil, err
		}
		l.rec.attachLog(lg)
		l.rec.begin()
	}
	return l, nil
}

// build assembles the deployment, with a durability recorder wired to
// the input hooks and the journal when cfg.Durable is set. A non-nil rb
// marks a recovery re-execution: identical wiring and RNG draws, but the
// recorder verifies against rb instead of logging, and scheduled
// crashes must not stop the engine (the rebuild runs straight through
// them).
func build(cfg Config, rb *rebuild) (*Lattice, error) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(cfg.Seed)
	idx, err := mds.NewIndex(eng, mdsTTL)
	if err != nil {
		return nil, err
	}
	l := &Lattice{
		Engine:    eng,
		Index:     idx,
		rng:       rng,
		resources: make(map[string]lrm.LRM),
		refName:   cfg.ReferenceCluster,
	}
	l.Obs = obs.New(eng)
	// The hooks stay nil interfaces unless a recorder exists: a typed-nil
	// *recorder in a hook would pass every "durable != nil" check.
	var hooks interface {
		gsbl.Durability
		dag.Durability
		portal.Durability
	}
	var artifacts string
	if cfg.Durable != "" {
		l.rec = newRecorder(eng, cfg.Seed, rb)
		hooks = l.rec
		artifacts = filepath.Join(cfg.Durable, "artifacts")
	}
	l.Scheduler = metasched.New(eng, idx, cfg.Scheduler, metasched.Options{Obs: l.Obs})
	// The injector and its sink exist only when a fault schedule is
	// configured: a no-fault deployment takes the exact pre-injector
	// path (same wiring, same RNG stream draws, bit-identical runs).
	var pubSink mds.Sink = idx
	if cfg.Faults != nil {
		l.Faults = faults.NewInjector(eng, rng.Stream("faults"), l.Obs)
		if rb != nil {
			l.Faults.SetCrashStops(false)
		}
		pubSink = l.Faults.Sink(idx)
	}
	for _, rs := range cfg.Resources {
		inner, err := l.buildResource(rs)
		if err != nil {
			return nil, err
		}
		target := inner
		if l.Faults != nil {
			target = l.Faults.Wrap(inner)
			if rs.Kind == "boinc" {
				l.Faults.AttachChurner(rs.Name, l.Boinc)
			}
		}
		if cfg.ResourceWrap != nil {
			target = cfg.ResourceWrap(eng, rs.Name, target)
		}
		l.resources[rs.Name] = target
		if _, err := mds.StartProvider(eng, pubSink, target, providerPeriod); err != nil {
			return nil, err
		}
		speed := rs.Speed
		if speed <= 0 {
			speed = 1
		}
		if err := l.Scheduler.Register(target, speed); err != nil {
			return nil, err
		}
	}
	if l.Faults != nil {
		if err := l.Faults.Apply(*cfg.Faults); err != nil {
			return nil, err
		}
	}
	if cfg.TrainingJobs > 0 {
		est, err := estimate.Bootstrap(cfg.Estimator, workload.NewGenerator(cfg.Seed+1), cfg.TrainingJobs)
		if err != nil {
			return nil, err
		}
		l.Estimator = est
		l.Scheduler.SetPredictor(est)
	}
	l.Mailer = &gsbl.Mailer{}
	l.Service, err = gsbl.NewService(eng, l.Scheduler, l.Mailer, rng.Stream("gsbl"), gsbl.Options{
		Obs: l.Obs, IDPrefix: cfg.IDPrefix, Ingest: cfg.Ingest, Admit: cfg.Admit, Durable: hooks,
	})
	if err != nil {
		return nil, err
	}
	l.Workflows = dag.NewEngine(eng, l.Service, l.Obs, dag.Config{IDPrefix: cfg.IDPrefix, Durable: hooks})
	l.Portal = portal.New(eng, l.Service, portal.Options{
		Obs: l.Obs, Workflows: l.Workflows, StatusSource: l.statusJSON, ArtifactDir: artifacts, Durable: hooks,
	})
	if l.rec != nil {
		// Wired before any journal event is recorded, so checkpoints
		// count the journal from its first event in both live and
		// rebuild modes.
		l.Obs.Journal.SetObserver(l.rec.observe)
	}
	return l, nil
}

// resourceRow is one federation member in a /grid/status body.
type resourceRow struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Total   int    `json:"totalCPUs"`
	Free    int    `json:"freeCPUs"`
	Queued  int    `json:"queued"`
	Running int    `json:"running"`
	Stable  bool   `json:"stable"`
}

// resourceRows is the federation as MDS currently sees it.
func (l *Lattice) resourceRows() []resourceRow {
	var rows []resourceRow
	for _, e := range l.Index.Snapshot() {
		rows = append(rows, resourceRow{
			Name: e.Info.Name, Kind: e.Info.Kind,
			Total: e.Info.TotalCPUs, Free: e.Info.FreeCPUs,
			Queued: e.Info.QueuedJobs, Running: e.Info.RunningJobs,
			Stable: e.Info.Stable,
		})
	}
	return rows
}

// statusJSON is the /grid/status body of a single coordinator. The
// two error fields appear only when there is something to report, so a
// healthy body is what it always was.
func (l *Lattice) statusJSON() any {
	st := map[string]any{
		"resources": l.resourceRows(),
		"scheduler": l.Scheduler.Stats(),
		"time":      float64(l.Engine.Now()),
	}
	retrain, durable := l.errorStatus()
	if len(retrain) > 0 {
		st["retrainErrors"] = retrain
	}
	if durable != "" {
		st["durableError"] = durable
	}
	return st
}

// errorStatus renders the coordinator's two background error paths —
// failures of the retraining loop and the write-ahead log's sticky
// error — for /grid/status; both empty on a healthy deployment.
func (l *Lattice) errorStatus() (retrain []string, durable string) {
	for _, err := range l.retrainErrs {
		retrain = append(retrain, err.Error())
	}
	if err := l.DurableErr(); err != nil {
		durable = err.Error()
	}
	return retrain, durable
}

// buildResource constructs one LRM from its spec.
func (l *Lattice) buildResource(rs ResourceSpec) (lrm.LRM, error) {
	plat := rs.Platform
	if plat == "" {
		plat = lrm.LinuxX86
	}
	switch rs.Kind {
	case "condor", "pbs", "sge":
		// PBS allocates whole nodes.
		nodes := []cluster.NodeClass{{Count: rs.Nodes, Cores: 1, Speed: rs.Speed, MemoryMB: rs.MemMB}}
		var owners *sim.RNG
		switch {
		case rs.Kind == "sge" && rs.Cores > 0:
			nodes[0].Cores = rs.Cores
		case rs.Kind == "condor":
			// One workstation per machine, each with its own speed and
			// owner.
			nodes = make([]cluster.NodeClass, rs.Nodes)
			for i := range nodes {
				nodes[i] = cluster.NodeClass{Count: 1, Cores: 1, Speed: jitter(l.rng, rs.Speed, 0.2), MemoryMB: rs.MemMB,
					MeanOwnerAway: rs.MeanOwnerAway, MeanOwnerBusy: rs.MeanOwnerBusy}
			}
			owners = l.rng.Stream("condor-" + rs.Name)
		}
		return cluster.New(l.Engine, owners, l.Obs, cluster.Config{
			Kind: rs.Kind, Name: rs.Name, Nodes: nodes, Platform: plat, MPI: rs.MPI, MaxRequeues: 50,
		})
	case "boinc":
		srv, err := boinc.NewServer(l.Engine, l.rng.Stream("boinc-"+rs.Name), l.Obs, rs.Name)
		if err != nil {
			return nil, err
		}
		pop := rs.Population
		if pop == nil {
			p := boinc.DefaultPopulation(200)
			pop = &p
		}
		boinc.GeneratePopulation(srv, l.rng.Stream("boincpop-"+rs.Name), *pop)
		l.Boinc = srv
		return srv, nil
	default:
		return nil, fmt.Errorf("core: unknown resource kind %q", rs.Kind)
	}
}

func jitter(rng *sim.RNG, v, frac float64) float64 {
	return v * rng.Uniform(1-frac, 1+frac)
}

// Resource returns a federation member by name.
func (l *Lattice) Resource(name string) (lrm.LRM, bool) {
	r, ok := l.resources[name]
	return r, ok
}

// ResourceNames lists the federation members in sorted order, so
// callers that iterate and emit never depend on map layout.
func (l *Lattice) ResourceNames() []string {
	names := make([]string, 0, len(l.resources))
	for n := range l.resources {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TotalCores sums the federation's CPU cores as MDS currently sees it.
func (l *Lattice) TotalCores() int {
	total := 0
	for _, e := range l.Index.Snapshot() {
		total += e.Info.TotalCPUs
	}
	return total
}

// SubmitSubmission validates and schedules a portal-style submission
// on the spot, past any modelled front door, under the "core" origin.
func (l *Lattice) SubmitSubmission(sub workload.Submission) (*gsbl.Batch, error) {
	return l.submit(gsbl.Request{Sub: sub, Origin: "core", Direct: true})
}

// submit offers a request to the service. A "core" request the service
// expanded on the spot forks one extra replicate to the reference
// cluster for continuous model retraining when configured (Section
// VI-E: "we simply fork off a single job replicate on our reference
// computer … and add the observed runtime and values of the predictor
// variables to the matrix"); the fork stays a direct-submission
// feature, so nothing queued behind the door and no cluster arrival
// ("shard<k>/core") forks. Every live "core" request and crash replay
// both come through here, which is what keeps the fork count equal
// between them.
func (l *Lattice) submit(r gsbl.Request) (*gsbl.Batch, error) {
	b, err := l.Service.Submit(r)
	if b != nil && r.Origin == "core" && l.refName != "" && l.Estimator != nil {
		l.forkReferenceReplicate(r.Sub)
	}
	return b, err
}

// SubmitWorkflow validates and starts a stage-DAG workflow: each
// stage becomes a derived GSBL batch the moment its dependencies
// finish. The workflow itself is the durable input; stage batches are
// regenerated by deterministic re-execution on recovery.
func (l *Lattice) SubmitWorkflow(wf workload.Workflow) (*dag.Run, error) {
	return l.Workflows.Submit(wf)
}

// forkReferenceReplicate runs one replicate on the homogeneous
// reference cluster and feeds the observation back into the model.
func (l *Lattice) forkReferenceReplicate(sub workload.Submission) {
	ref, ok := l.resources[l.refName]
	if !ok {
		return
	}
	spec := sub.Spec
	spec.Seed = sub.Spec.Seed ^ 0x7ef
	work := spec.SampleWork(l.rng.Stream("reffork"))
	start := l.Engine.Now()
	l.retrains++
	j := &lrm.Job{
		ID:       "ref-fork-" + strconv.Itoa(l.retrains),
		Work:     work,
		MemoryMB: spec.MemoryMB(),
	}
	j.Owner = &lrm.Callbacks{OnComplete: func(at sim.Time) {
		// The reference cluster runs at speed 1.0, so wall time is
		// reference time (minus queueing, which the paper's operators
		// also absorbed).
		observed := float64(at.Sub(start))
		if err := l.Estimator.AddObservation(&spec, observed); err != nil {
			l.noteRetrainErr(err)
			return
		}
		// Rebuilding "takes very little time to compute" and the new
		// model "is immediately available for use with incoming jobs".
		if err := l.Estimator.Retrain(); err != nil {
			l.noteRetrainErr(err)
		}
	}}
	if err := ref.Submit(j); err != nil {
		l.noteRetrainErr(err)
	}
}

// noteRetrainErr records a continuous-retraining failure, keeping the
// most recent ones, and counts it where an operator scrapes: the
// series exists from the first failure on, so a healthy exposition
// does not carry it.
func (l *Lattice) noteRetrainErr(err error) {
	const keep = 32
	if len(l.retrainErrs) >= keep {
		l.retrainErrs = l.retrainErrs[1:]
	}
	l.retrainErrs = append(l.retrainErrs, err)
	l.Obs.Counter("lattice_estimate_retrain_errors_total",
		"Continuous-retraining failures: reference-cluster submits, observation feeds, rebuilds").Inc()
}

// RetrainErrors returns the recorded continuous-retraining failures
// (most recent last). An empty slice means the loop is healthy.
func (l *Lattice) RetrainErrors() []error { return l.retrainErrs }

// Retrains reports how many reference forks have been issued.
func (l *Lattice) Retrains() int { return l.retrains }

// Run advances the grid by d.
func (l *Lattice) Run(d sim.Duration) {
	l.Engine.RunUntil(l.Engine.Now().Add(d))
}
