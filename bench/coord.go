package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"lattice/internal/admit"
	"lattice/internal/boinc"
	"lattice/internal/core"
	"lattice/internal/faults"
	"lattice/internal/gsbl"
	"lattice/internal/lrm"
	"lattice/internal/metasched"
	"lattice/internal/obs"
	"lattice/internal/phylo"
	"lattice/internal/shard"
	"lattice/internal/sim"
	"lattice/internal/wal"
	"lattice/internal/workload"
)

// pbsFederation is the grid of the three cluster workloads: sixteen
// identical 32-node PBS clusters behind a coordinator front door that
// costs 1.0 virtual second per submission plus 0.25 per replicate;
// estimator and bundling off, so one user is one grid job. It is the
// BENCH_PR9 ScaleOut configuration.
func pbsFederation(seed int64) core.Config {
	var res []core.ResourceSpec
	for i := 0; i < 16; i++ {
		res = append(res, core.ResourceSpec{
			Kind: "pbs", Name: fmt.Sprintf("pbs%02d", i),
			Nodes: 32, Speed: 2.0, MemMB: 8192,
		})
	}
	sched := metasched.DefaultConfig()
	sched.BundleTargetSeconds = 0
	return core.Config{
		Seed:      seed,
		Scheduler: sched,
		Resources: res,
		Ingest:    gsbl.IngestConfig{PerSubmissionSeconds: 1.0, PerReplicateSeconds: 0.25},
	}
}

// tinySubmission is one small one-replicate GARLI job: cheap enough
// that the grid never saturates and the front door is what is
// measured.
func tinySubmission(seed int64, email string) workload.Submission {
	return workload.Submission{
		Spec: workload.JobSpec{
			DataType: phylo.Nucleotide, SubstModel: "HKY85",
			RateHet: phylo.RateGamma, NumRateCats: 4, GammaShape: 0.6,
			NumTaxa: 12, SeqLength: 400, SearchReps: 1,
			StartingTree: phylo.StartStepwise, AttachmentsPerTaxon: 8, Seed: seed,
		},
		Replicates: 1,
		UserEmail:  email,
	}
}

// clusterSpec sizes one cluster workload.
type clusterSpec struct {
	// users is the population of a measured pass; window the virtual
	// span it arrives over.
	users  int
	window sim.Duration
	shards int
	// pool, when > 0, draws submitters round-robin from that many
	// users; 0 gives every submission its own user.
	pool    int
	admit   admit.Config
	durable bool
	// crash kills shard k once at crashAt(k); disarm journals the
	// crash without stopping the engine — the uninterrupted twin.
	crash  bool
	disarm bool
}

// crashAt staggers the shard kills so recoveries do not coincide.
func crashAt(k int) sim.Time {
	return sim.Time(3*sim.Hour + sim.Duration(7*k)*sim.Minute)
}

// clusterRun is a built cluster workload and what its timed interval
// leaves behind for the untimed collection.
type clusterRun struct {
	spec clusterSpec
	tr   *tracer
	dir  string
	c    *core.Cluster
	subs []workload.Submission
	at   []sim.Time

	perShard      []int
	deadSteps     uint64
	peakDepth     int
	recoveries    int
	recovered     int
	digest        string
	shardDigests  []string
	expositionLen int
}

func newClusterRun(e *env, spec clusterSpec) (*clusterRun, error) {
	spec.users = e.size(spec.users, 200)
	r := &clusterRun{spec: spec, tr: e.tr, dir: e.dir}
	// Window and kill times shrink with the population, so a smaller
	// pass meets the same arrival rate and the same door saturation.
	window := spec.window / sim.Duration(e.div)
	r.subs = make([]workload.Submission, spec.users)
	r.at = make([]sim.Time, spec.users)
	for i := range r.subs {
		u := i
		if spec.pool > 0 {
			u = i % spec.pool
		}
		r.subs[i] = tinySubmission(e.seed, fmt.Sprintf("u%06d@scale.example.edu", u))
		r.at[i] = sim.Time(sim.Duration(i) * window / sim.Duration(spec.users))
	}
	base := pbsFederation(e.seed)
	base.Admit = spec.admit
	cfg := core.ClusterConfig{Shards: spec.shards, Share: shard.SharePartition, Base: base}
	if spec.durable {
		if err := os.MkdirAll(e.dir, 0o755); err != nil {
			return nil, err
		}
		cfg.DurableRoot = e.dir
	}
	if spec.crash {
		cfg.ShardFaults = func(k int) *faults.Schedule {
			return &faults.Schedule{CrashAt: []sim.Time{crashAt(k) / sim.Time(e.div)}}
		}
	}
	end := r.tr.span("core.NewCluster", "core.new_s")
	c, err := core.NewCluster(cfg)
	end()
	if err != nil {
		return nil, err
	}
	if spec.disarm {
		for _, l := range c.Shards {
			if l.Faults != nil {
				l.Faults.SetCrashStops(false)
			}
		}
	}
	r.c = c
	r.perShard = make([]int, spec.shards)
	return r, nil
}

func (r *clusterRun) close() {
	//lint:allow errdrop -- closing twice is harmless; an error here was either reported by run or belongs to a fixture that was never run
	r.c.CloseDurable()
}

// done reports whether every arrival was delivered, every front-door
// queue drained and every grid job finished.
func (r *clusterRun) done() bool {
	if r.c.PendingArrivals() != 0 {
		return false
	}
	for _, l := range r.c.Shards {
		if l.Service.IngestDepth() != 0 {
			return false
		}
		st := l.Scheduler.Stats()
		if st.Completed+st.Failed < st.Submitted {
			return false
		}
	}
	return true
}

// furthest is the latest shard clock.
func (r *clusterRun) furthest() sim.Time {
	var t sim.Time
	for _, l := range r.c.Shards {
		t = max(t, l.Engine.Now())
	}
	return t
}

// run is the timed interval: schedule every arrival, advance the
// cluster hour by hour (absolute boundaries, so a recovered shard
// rejoins its twin's observation grid), recover killed shards in
// place, then read the digest and the exposition and close the logs.
func (r *clusterRun) run() error {
	c := r.c
	end := r.tr.span("Cluster.ScheduleSubmission", "core.schedule_s")
	for i := range r.subs {
		r.perShard[c.ScheduleSubmission(r.at[i], r.subs[i])]++
	}
	end()
	deadline := sim.Time(40 * sim.Day)
	for {
		k := int(float64(r.furthest()) / float64(sim.Hour))
		end := r.tr.span("Cluster.RunUntil", "core.run_s")
		c.RunUntil(sim.Time(sim.Duration(k+1) * sim.Hour))
		end()
		for _, k := range c.CrashedShards() {
			r.deadSteps += c.Shards[k].Engine.Steps()
			end := r.tr.span("Cluster.RecoverShard", "core.recover_s")
			rep, err := c.RecoverShard(k)
			end()
			if err != nil {
				return err
			}
			if rep.Inputs == 0 {
				return fmt.Errorf("shard %d recovered without replaying any input", k)
			}
			r.recoveries++
			r.recovered += rep.Inputs
		}
		depth := 0
		for _, l := range c.Shards {
			depth += l.Service.IngestDepth()
		}
		r.peakDepth = max(r.peakDepth, depth)
		if r.done() {
			break
		}
		if r.furthest() >= deadline {
			return fmt.Errorf("cluster not done after 40 virtual days")
		}
	}
	end = r.tr.span("Cluster.Digest", "core.digest_s")
	r.shardDigests = c.ShardDigests()
	r.digest = c.Digest()
	end()
	end = r.tr.span("Cluster.MergedExposition", "obs.exposition_s")
	r.expositionLen = len(c.MergedExposition())
	end()
	end = r.tr.span("Cluster.CloseDurable", "core.close_s")
	err := c.CloseDurable()
	end()
	return err
}

// collect runs the checks and reads the exported counters, outside
// the timed interval.
func (r *clusterRun) collect() (*result, error) {
	c := r.c
	res := &result{ops: r.spec.users, digest: r.digest, shardDigests: r.shardDigests, layer: map[string]float64{}}
	if r.expositionLen == 0 {
		res.failf("empty metrics exposition")
	}
	if r.spec.crash && !r.spec.disarm && r.recoveries != r.spec.shards {
		res.failf("%d shard recoveries, want %d", r.recoveries, r.spec.shards)
	}
	var st metasched.Stats
	var steps = r.deadSteps
	var journal, series, batches, terminals, shedQuota, shedOverload int
	var lastDone sim.Time
	var ingest, place histSum
	var observed float64
	for k, l := range c.Shards {
		if errs := l.Service.IngestErrors(); len(errs) > 0 {
			res.failf("shard %d: deferred ingest error: %v", k, errs[0])
		}
		if err := l.DurableErr(); err != nil {
			res.failf("shard %d: durable error: %v", k, err)
		}
		addStats(&st, l.Scheduler.Stats())
		steps += l.Engine.Steps()
		journal += l.Obs.Journal.Len()
		tc := l.Obs.Journal.TerminalCounts()
		terminals += len(tc)
		bad := 0
		for _, n := range tc {
			if n != 1 {
				bad++
			}
		}
		if bad > 0 {
			res.failf("shard %d: %d journaled jobs without exactly one terminal", k, bad)
		}
		d, err := batchesDone(l.Service)
		if err != nil {
			res.failf("shard %d: %v", k, err)
		}
		lastDone = max(lastDone, d)
		batches += len(l.Service.Batches())
		q, o := l.Service.Sheds()
		shedQuota += q
		shedOverload += o
		snap := l.Obs.Registry.Snapshot()
		series += len(snap)
		observed += observations(snap)
		ingest.add(snap, "lattice_gsbl_ingest_wait_seconds")
		place.add(snap, "lattice_sched_placement_wait_seconds")
	}
	if batches+shedQuota+shedOverload != r.spec.users {
		res.failf("accepted %d + shed %d+%d != offered %d", batches, shedQuota, shedOverload, r.spec.users)
	}
	if terminals != st.Submitted {
		res.failf("%d journaled jobs, scheduler saw %d", terminals, st.Submitted)
	}
	if st.Completed+st.Failed != st.Submitted {
		res.failf("scheduler: %d completed + %d failed != %d submitted", st.Completed, st.Failed, st.Submitted)
	}

	m := res.layer
	m["sim.events"] = float64(steps)
	m["obs.journal_events"] = float64(journal)
	m["obs.series"] = float64(series)
	m["obs.observations"] = observed
	m["gsbl.batches"] = float64(batches)
	m["gsbl.ingest_peak_depth"] = float64(r.peakDepth)
	m["gsbl.virt_ingest_wait_s"] = ingest.mean()
	schedLayer(m, st, place, lastDone, batches)
	m["shard.imbalance"] = float64(slices.Max(r.perShard)) * float64(r.spec.shards) / float64(r.spec.users)
	if r.spec.admit.Enabled() {
		m["admit.shed_quota"] = float64(shedQuota)
		m["admit.shed_overload"] = float64(shedOverload)
		m["admit.accept_ratio"] = float64(batches) / float64(r.spec.users)
	}
	if r.spec.durable {
		m["core.recovered_inputs"] = float64(r.recovered)
		for k := range c.Shards {
			dir := filepath.Join(r.dir, fmt.Sprintf("shard%d", k))
			state, err := wal.Load(dir)
			if err != nil {
				return nil, fmt.Errorf("reading shard %d log: %w", k, err)
			}
			m["wal.records"] += float64(state.LastSeq)
			m["wal.log_bytes"] += fileSize(wal.LogPath(dir))
			m["wal.snapshot_bytes"] += fileSize(wal.SnapshotPath(dir))
		}
	}
	return res, nil
}

// histSum accumulates one histogram family across registries.
type histSum struct {
	sum float64
	n   uint64
}

func (h *histSum) add(snap []obs.SeriesSnapshot, name string) {
	for _, s := range snap {
		if s.Name == name {
			h.sum += s.Sum
			h.n += s.Count
		}
	}
}

func (h *histSum) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// observations counts the samples of every histogram in snap: how
// often the pass called Histogram.Observe.
func observations(snap []obs.SeriesSnapshot) float64 {
	var n uint64
	for _, s := range snap {
		n += s.Count
	}
	return float64(n)
}

func addStats(dst *metasched.Stats, s metasched.Stats) {
	dst.Submitted += s.Submitted
	dst.Completed += s.Completed
	dst.Failed += s.Failed
	dst.Retries += s.Retries
	dst.Bundled += s.Bundled
	dst.Requeued += s.Requeued
}

// schedLayer writes the metasched.* simulated statistics; replicates
// is how many replicates the grid jobs carry between them.
func schedLayer(m map[string]float64, st metasched.Stats, place histSum, lastDone sim.Time, replicates int) {
	m["metasched.grid_jobs"] = float64(st.Submitted)
	m["metasched.completed"] = float64(st.Completed)
	m["metasched.failed"] = float64(st.Failed)
	m["metasched.retries"] = float64(st.Retries)
	m["metasched.requeued"] = float64(st.Requeued)
	if st.Submitted > 0 {
		m["metasched.bundle_ratio"] = float64(replicates) / float64(st.Submitted)
	}
	m["metasched.virt_place_wait_s"] = place.mean()
	m["metasched.virt_makespan_h"] = lastDone.Sub(0).Hours()
}

// batchesDone checks that every batch of svc finished and returns the
// latest finish time.
func batchesDone(svc *gsbl.Service) (sim.Time, error) {
	var last sim.Time
	for _, id := range svc.Batches() {
		bst, err := svc.Status(id)
		if err != nil {
			return 0, err
		}
		if !bst.Done {
			return 0, fmt.Errorf("batch %s not done at collection", id)
		}
		last = max(last, bst.DoneAt)
	}
	return last, nil
}

func fileSize(path string) float64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0 // no snapshot yet is a valid state
	}
	return float64(fi.Size())
}

// clusterFixture builds the fixture of a cluster workload.
func clusterFixture(e *env, spec clusterSpec) (*fixture, error) {
	r, err := newClusterRun(e, spec)
	if err != nil {
		return nil, err
	}
	return &fixture{run: r.run, collect: r.collect, probes: r.probes, close: r.close}, nil
}

var scaleoutSpec = clusterSpec{users: 100000, window: 6 * sim.Hour, shards: 1}

// shardsDurableSpec keeps each shard's arrival rate (1667/h) below its
// door's 2880/h: RecoverShard fails when a shard dies with a backlog
// at its door (README, "Two sizing findings").
var shardsDurableSpec = clusterSpec{users: 40000, window: 6 * sim.Hour, shards: 4, durable: true, crash: true}

var overloadSpec = clusterSpec{
	users: 100000, window: 24 * sim.Hour, shards: 1, pool: 400,
	admit: admit.Config{UserRatePerHour: 720, UserBurst: 300, MaxQueueDepth: 512, MaxQueuedSeconds: 120},
}

// shardsDurableTwin is the shards-durable warm-up slot: the same
// users through the same four shards with durability off and the
// crashes journaled but disarmed. Its per-shard digests are what the
// killed-and-recovered shards must reproduce, and its run time is the
// base wal.overhead_s subtracts.
func shardsDurableTwin(e *env) (*result, error) {
	spec := shardsDurableSpec
	spec.durable = false
	spec.disarm = true
	// The twin's spans go to a tracer of its own: only its run time is
	// wanted, and the pass's trace holds the timed fixture alone.
	twinTr := newTracer("shards-durable-twin", e.tr.enabled())
	r, err := newClusterRun(&env{seed: e.seed, div: e.div, tr: twinTr, dir: e.dir}, spec)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := r.run(); err != nil {
		return nil, err
	}
	res, err := r.collect()
	if err != nil {
		return nil, err
	}
	twinTr.fold(res.layer)
	return res, nil
}

func shardsDurableCheck(p *pass, res, twin *result) {
	for _, c := range twin.checks {
		p.failf("twin: %s", c)
	}
	if len(res.shardDigests) != len(twin.shardDigests) {
		p.failf("%d shard digests, twin has %d", len(res.shardDigests), len(twin.shardDigests))
		return
	}
	for k := range res.shardDigests {
		if res.shardDigests[k] != twin.shardDigests[k] {
			p.failf("shard %d digest %.12s differs from the uninterrupted twin's %.12s", k, res.shardDigests[k], twin.shardDigests[k])
		}
	}
	if p.Traced {
		p.Layer["wal.overhead_s"] = p.Layer["core.run_s"] - twin.layer["core.run_s"]
	}
}

// batchRun is the batch2000 fixture: few maximal submissions on the
// paper's heterogeneous federation with everything switched on.
type batchRun struct {
	tr   *tracer
	l    *core.Lattice
	subs []workload.Submission
	at   []sim.Time

	submitErrs []error
	submitted  int
	zipBytes   int
	digest     string
	exposition int
	predict    callTimer
	submit     callTimer
	infos      int
}

// batchGap spaces the submissions: the door is idle between them.
const batchGap = 2 * sim.Hour

// batchMixSeed seeds the generator batch2000's job mix is drawn from
// and the federation it runs on.
const batchMixSeed = 2

// batchJitter is how far, in virtual seconds, the benchmark seed may
// move a submission past its slot.
const batchJitter = 600

func newBatchRun(e *env) (*batchRun, error) {
	r := &batchRun{tr: e.tr}
	nsubs := e.size(40, 2)
	reps := min(e.size(40*workload.MaxReplicates, 40)/nsubs, workload.MaxReplicates)
	// The job mix and the federation's seed are part of the workload's
	// size: one 40-job draw or one bootstrapped estimator to the next
	// spans a twofold range of grid jobs. The benchmark seed moves each
	// arrival inside its slot, which is enough to send the simulation
	// down a different history of about the same length.
	gen := workload.NewGenerator(batchMixSeed)
	rng := sim.NewRNG(e.seed).Stream("bench-batch2000")
	for i := 0; i < nsubs; i++ {
		sub := gen.Submission()
		sub.Replicates = reps
		sub.Bootstrap = true
		r.subs = append(r.subs, sub)
		r.at = append(r.at, sim.Time(sim.Duration(i)*batchGap+sim.Duration(rng.Uniform(0, batchJitter))))
	}
	cfg := core.DefaultConfig(batchMixSeed - 1)
	pop := boinc.DefaultPopulation(2000)
	for i := range cfg.Resources {
		if cfg.Resources[i].Kind == "boinc" {
			cfg.Resources[i].Population = &pop
		}
	}
	cfg.Faults = core.DefaultFaultSchedule()
	traced := e.tr.enabled()
	if traced {
		cfg.ResourceWrap = func(_ *sim.Engine, _ string, inner lrm.LRM) lrm.LRM {
			return timedLRM{LRM: inner, submit: &r.submit, infos: &r.infos}
		}
	}
	end := r.tr.span("core.New", "core.new_s")
	l, err := core.New(cfg)
	end()
	if err != nil {
		return nil, err
	}
	if traced {
		l.Scheduler.SetPredictor(timedPredictor{inner: l.Estimator, calls: &r.predict})
	}
	r.l = l
	return r, nil
}

func (r *batchRun) run() error {
	l := r.l
	end := r.tr.span("Engine.ScheduleAt", "core.schedule_s")
	for i := range r.subs {
		sub := r.subs[i]
		l.Engine.ScheduleAt(r.at[i], func() {
			r.submitted++
			if _, err := l.SubmitSubmission(sub); err != nil {
				r.submitErrs = append(r.submitErrs, err)
			}
		})
	}
	end()
	deadline := sim.Time(2 * sim.Year)
	for {
		end := r.tr.span("Lattice.Run", "core.run_s")
		l.Run(6 * sim.Hour)
		end()
		st := l.Scheduler.Stats()
		if r.submitted == len(r.subs) && st.Completed+st.Failed >= st.Submitted {
			break
		}
		if l.Engine.Now() >= deadline {
			return fmt.Errorf("batches not done after 2 virtual years")
		}
	}
	end = r.tr.span("Service.ResultsZip", "gsbl.zip_s")
	for _, id := range l.Service.Batches() {
		z, err := l.Service.ResultsZip(id)
		if err != nil {
			end()
			return fmt.Errorf("zipping %s: %w", id, err)
		}
		r.zipBytes += len(z)
	}
	end()
	end = r.tr.span("Journal.Digest", "core.digest_s")
	r.digest = l.Obs.Journal.Digest()
	end()
	end = r.tr.span("Obs.Exposition", "obs.exposition_s")
	r.exposition = len(l.Obs.Exposition())
	end()
	return nil
}

func (r *batchRun) collect() (*result, error) {
	l := r.l
	replicates := 0
	for _, s := range r.subs {
		replicates += s.Replicates
	}
	res := &result{ops: replicates, digest: r.digest, layer: map[string]float64{}}
	for _, err := range r.submitErrs {
		res.failf("submission refused: %v", err)
	}
	for _, err := range l.RetrainErrors() {
		res.failf("retraining: %v", err)
	}
	if r.exposition == 0 {
		res.failf("empty metrics exposition")
	}
	if n := len(l.Service.Batches()); n != len(r.subs) {
		res.failf("%d batches, want %d", n, len(r.subs))
	}
	lastDone, err := batchesDone(l.Service)
	if err != nil {
		res.failf("%v", err)
	}
	bad := 0
	for _, n := range l.Obs.Journal.TerminalCounts() {
		if n != 1 {
			bad++
		}
	}
	if bad > 0 {
		res.failf("%d journaled jobs without exactly one terminal", bad)
	}
	st := l.Scheduler.Stats()
	snap := l.Obs.Registry.Snapshot()
	var place histSum
	place.add(snap, "lattice_sched_placement_wait_seconds")

	m := res.layer
	m["sim.events"] = float64(l.Engine.Steps())
	m["obs.journal_events"] = float64(l.Obs.Journal.Len())
	m["obs.series"] = float64(len(snap))
	m["obs.observations"] = observations(snap)
	m["gsbl.batches"] = float64(len(l.Service.Batches()))
	m["gsbl.zip_bytes"] = float64(r.zipBytes)
	schedLayer(m, st, place, lastDone, replicates)
	m["estimate.retrains"] = float64(l.Retrains())
	if l.Boinc != nil {
		bs := l.Boinc.ProjectStats()
		m["boinc.results_issued"] = float64(bs.ResultsIssued)
		m["boinc.results_timed_out"] = float64(bs.ResultsTimedOut)
		m["boinc.wasted_cpu_s"] = bs.WastedCPUSeconds
	}
	for _, n := range l.Faults.Injected() {
		m["faults.injected"] += float64(n)
	}
	if r.tr.enabled() {
		m["estimate.predicts"] = float64(r.predict.n)
		m["estimate.predict_s"] = float64(r.predict.ns) / 1e9
		m["lrm.submits"] = float64(r.submit.n)
		m["lrm.submit_s"] = float64(r.submit.ns) / 1e9
		m["lrm.info_calls"] = float64(r.infos)
	}
	return res, nil
}

func batchFixture(e *env) (*fixture, error) {
	r, err := newBatchRun(e)
	if err != nil {
		return nil, err
	}
	return &fixture{run: r.run, collect: r.collect, probes: r.probes, close: func() {}}, nil
}
