package experiments

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"sync"

	"lattice/internal/admit"
	"lattice/internal/core"
	"lattice/internal/faults"
	"lattice/internal/gsbl"
	"lattice/internal/metasched"
	"lattice/internal/obs"
	"lattice/internal/shard"
	"lattice/internal/sim"
	"lattice/internal/wal"
	"lattice/internal/workload"
)

// scenario is one run of the system under test, as data: which
// federation, how many coordinators, what goes wrong, what load
// arrives and when the run is over. execute owns the rest of the life
// cycle — build, pump, crash and recover, collect, close. load and
// done keep whatever state they need in the run they are handed,
// never in captured variables: twin runs one scenario value twice,
// concurrently.
type scenario struct {
	// federation is the deployment template at a seed. Faults, Durable
	// and the per-shard fields are the runner's to set.
	federation func(seed int64) core.Config
	// shards is the coordinator count: 0 is one flat coordinator, n ≥ 1
	// an n-shard cluster over a static partition of the federation.
	shards int
	// faults is shard k's fault schedule (a nil func or a nil return:
	// none). A flat coordinator is shard 0.
	faults func(k int) *faults.Schedule
	// durable gives every shard a write-ahead log in a scratch directory
	// and arms the schedule's kills: a killed shard is recovered in
	// place from its own log. Without it kills are journaled but stop
	// nothing — the uninterrupted twin of the same schedule.
	durable bool
	// tear rips the last bytes off a killed shard's log before the
	// run's first recovery: the torn final frame of a real crash.
	tear bool
	// step is the observation grid: the runner advances every shard to
	// the next multiple of step past the load's end, so a recovered
	// shard — which resumes mid-interval at its kill time — stops at the
	// same instants as an uninterrupted twin and their journals stay
	// comparable.
	step sim.Duration
	// deadline bounds the run, measured from the load's end; a run that
	// is not done by then is an error.
	deadline sim.Duration
	// load installs the workload on the freshly built deployment. It may
	// advance the clocks (paced arrivals do).
	load func(r *run) error
	// done reports, at a grid boundary, that the run is over.
	done func(r *run) bool
}

// run is one scenario execution in flight.
type run struct {
	sc   scenario
	seed int64
	cfg  core.Config // sc.federation(seed)
	// dir is the scratch root for write-ahead logs, one subdirectory per
	// shard; empty unless the scenario is durable.
	dir     string
	cluster *core.Cluster // nil for a flat coordinator
	// origin is the furthest shard clock when load returned: the grid,
	// the deadline and every makespan are measured from here.
	origin sim.Time
	// offered counts, per shard, the submissions load sent through the
	// coordinator front door.
	offered []int
	// The deployment (lats) and the recovery bookkeeping live in the
	// outcome the run is filling in.
	*outcome
}

// outcome is everything one run can be asked about afterwards.
type outcome struct {
	// lats is the deployment, one coordinator per shard — once the run
	// is over, logs closed, for evidence only one scenario reads (journal
	// events, workflow status, core counts).
	lats []*core.Lattice
	m    BatchMetrics
	// digest is the run's identity: the journal digest of a flat
	// coordinator, the folded per-shard digests of a cluster.
	digest       string
	shardDigests []string
	// conserved is the exactly-one-terminal verdict, see conserved.
	conserved bool
	// sched and injected are summed over shards.
	sched    metasched.Stats
	injected map[faults.Kind]int
	// totalOffered, accepted, shedQuota and shedOverload account the
	// front door: submissions sent to it, batches it created, rejections.
	totalOffered, accepted  int
	shedQuota, shedOverload int
	// lastBatchDone is when the last batch turned terminal (m.Makespan
	// ends at the last *completed* job instead).
	lastBatchDone sim.Time
	// crashed counts the successful rebuilds of each shard ever killed;
	// recoveries is their total (it exceeds the kills when a kill's own
	// record was torn off and the kill fired again), replayed the durable
	// inputs they re-injected, torn whether a torn log tail was detected
	// and survived, and tornKill the shard whose kill fired again because
	// the tear took its record (-1: none).
	crashed    map[int]int
	recoveries int
	replayed   int
	torn       bool
	tornKill   int
	// ingestWait and placeWait are the front-door and placement wait
	// histograms summed over shards; peakDepth is the deepest front-door
	// queue seen at a grid boundary.
	ingestWait, placeWait obs.SeriesSnapshot
	peakDepth             int
}

// execute runs one scenario to completion and collects its outcome.
// Every log the run opened is closed and its scratch directory removed
// on every path out.
func execute(sc scenario, seed int64) (_ *outcome, err error) {
	r := &run{sc: sc, seed: seed, cfg: sc.federation(seed), outcome: &outcome{
		conserved: true,
		injected:  map[faults.Kind]int{},
		crashed:   map[int]int{},
		tornKill:  -1,
	}}
	if sc.durable {
		if r.dir, err = os.MkdirTemp("", "lattice-scenario-*"); err != nil {
			return nil, err
		}
	}
	defer func() { err = errors.Join(err, r.close()) }()
	if err := r.deploy(-1); err != nil {
		return nil, err
	}
	r.offered = make([]int, len(r.lats))
	for _, l := range r.lats {
		if l.Faults != nil {
			l.Faults.SetCrashStops(sc.durable)
		}
	}
	if err := sc.load(r); err != nil {
		return nil, err
	}
	r.origin = r.now()
	for {
		if err := r.step(); err != nil {
			return nil, err
		}
		depth := 0
		for _, l := range r.lats {
			depth += l.Service.IngestDepth()
		}
		r.peakDepth = max(r.peakDepth, depth)
		if sc.done(r) {
			break
		}
		if r.now() >= r.origin.Add(sc.deadline) {
			return nil, fmt.Errorf("experiments: run not done after %.0f virtual days", sc.deadline.Hours()/24)
		}
	}
	return r.outcome, r.collect()
}

// measure is execute for callers that only want the batch metrics.
func measure(sc scenario, seed int64) (BatchMetrics, error) {
	o, err := execute(sc, seed)
	if err != nil {
		return BatchMetrics{}, err
	}
	return o.m, nil
}

// twin runs a scenario and its same-seed control side by side — they
// share no state — and returns both outcomes. The control of an
// in-memory scenario is a second identical run (the determinism
// check); the control of a durable one is the same schedule in memory,
// kills journaled but never stopping an engine (the transparency
// check: recovery must change nothing observable).
func twin(sc scenario, seed int64) (first, control *outcome, err error) {
	ctl := sc
	ctl.durable = false
	var wg sync.WaitGroup
	var ctlErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		control, ctlErr = execute(ctl, seed)
	}()
	first, err = execute(sc, seed)
	wg.Wait()
	return first, control, errors.Join(err, ctlErr)
}

// deploy is the only place a coordinator is built or rebuilt: with
// k < 0 it assembles the scenario's deployment, otherwise it recovers
// killed shard k from that shard's own log. The flat coordinator is one
// core.New either way, which resumes the log it finds. Flat versus
// sharded is this one branch; the rest of the runner sees r.lats.
func (r *run) deploy(k int) (err error) {
	if r.sc.shards == 0 {
		cfg := r.cfg
		if r.sc.faults != nil {
			cfg.Faults = r.sc.faults(0)
		}
		if r.dir != "" {
			// core.ClusterConfig.DurableRoot's layout, borrowed as shard 0.
			cfg.Durable = shard.Dir(r.dir, 0)
		}
		lat, err := core.New(cfg)
		if err == nil {
			r.lats = []*core.Lattice{lat}
		}
		return err
	}
	if k < 0 {
		r.cluster, err = core.NewCluster(core.ClusterConfig{
			Shards:      r.sc.shards,
			Base:        r.cfg,
			DurableRoot: r.dir,
			ShardFaults: r.sc.faults,
		})
	} else {
		_, err = r.cluster.RecoverShard(k)
	}
	if err == nil {
		r.lats = r.cluster.Shards
	}
	return err
}

// recoverShard rebuilds killed shard k in place. The dead coordinator's
// log handle is closed first, as the OS would on process death.
func (r *run) recoverShard(k int) error {
	// A kill is recovered once, or twice when the tear took its record;
	// more means a kill no durable record covers, which would fire again
	// at every recovery.
	if kills := len(r.sc.faults(k).CrashAt); r.crashed[k] > kills {
		return fmt.Errorf("experiments: shard %d killed again after %d recoveries from %d scheduled kills", k, r.crashed[k], kills)
	}
	if err := r.lats[k].CloseDurable(); err != nil {
		return fmt.Errorf("experiments: closing killed shard %d: %w", k, err)
	}
	killLen := 0 // journal length at the kill whose record the tear takes
	if r.sc.tear && !r.torn {
		// The kill's checkpoint is the last record written.
		st, err := wal.Load(shard.Dir(r.dir, k))
		if err != nil {
			return err
		}
		killLen = st.Tail[len(st.Tail)-1].JournalLen
		path := wal.LogPath(shard.Dir(r.dir, k))
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		if err := os.Truncate(path, fi.Size()-3); err != nil {
			return err
		}
	}
	if err := r.deploy(k); err != nil {
		return fmt.Errorf("experiments: recovery %d (shard %d): %w", r.recoveries+1, k, err)
	}
	rep := r.lats[k].Recovery
	// The torn kill fires again only if the rebuild stopped short of it;
	// one whose last durable record is an input at the kill's instant
	// runs on through it.
	if r.lats[k].Obs.Journal.Len() < killLen {
		r.tornKill = k
	}
	r.crashed[k]++
	r.recoveries++
	r.replayed += rep.Inputs
	r.torn = r.torn || rep.TornTail
	return nil
}

// now is the furthest shard clock.
func (r *run) now() sim.Time {
	var furthest sim.Time
	for _, l := range r.lats {
		furthest = max(furthest, l.Engine.Now())
	}
	return furthest
}

// step advances every shard to the next grid boundary past the
// furthest clock. A shard killed on the way is recovered in place and
// run on to the boundary, so every shard is at the boundary when the
// run asks whether it is done — the instant an uninterrupted twin asks.
func (r *run) step() error {
	n := int(float64(r.now().Sub(r.origin)) / float64(r.sc.step))
	t := r.origin.Add(sim.Duration(n+1) * r.sc.step)
	for killed := true; killed; {
		killed = false
		for k, l := range r.lats {
			l.Engine.RunUntil(t)
			if l.Faults != nil && l.Faults.Crashed() {
				if err := r.recoverShard(k); err != nil {
					return err
				}
				killed = true
			}
		}
	}
	return nil
}

// close closes every live log and removes the scratch directory.
func (r *run) close() error {
	var err error
	for k, l := range r.lats {
		if cerr := l.CloseDurable(); cerr != nil {
			err = errors.Join(err, fmt.Errorf("experiments: closing shard %d log: %w", k, cerr))
		}
	}
	if r.dir != "" {
		err = errors.Join(err, os.RemoveAll(r.dir))
	}
	return err
}

// submit sends one submission straight to the flat coordinator.
func (r *run) submit(sub workload.Submission) error {
	_, err := r.lats[0].SubmitSubmission(sub)
	return err
}

// arrive schedules sub to reach its owner shard's front door at
// virtual time at. The shard records the arrival when it is scheduled,
// so recovering a killed shard schedules it again.
func (r *run) arrive(at sim.Time, sub workload.Submission) {
	r.offered[r.cluster.ScheduleSubmission(at, sub)]++
}

// enqueue offers sub to shard k's front door now, for loads that run
// their own arrival process on the shard's clock. A shed is the door's
// decision, journaled and counted, not an ingest error.
func (r *run) enqueue(k int, sub workload.Submission) {
	l := r.lats[k]
	if _, err := l.Service.Submit(gsbl.Request{Sub: sub, Origin: shard.Origin(k, "core")}); err != nil {
		if _, shed := err.(*admit.Rejection); !shed {
			l.Service.NoteIngestErr(fmt.Errorf("experiments: arrival on shard %d: %w", k, err))
		}
	}
	r.offered[k]++
}

// paced is the load of the flat grid experiments: subs submitted gap
// apart on the coordinator's own clock, so the scheduler reacts to
// evolving load instead of one stale MDS snapshot. It runs the clock
// through the arrival window.
func paced(subs []workload.Submission, gap sim.Duration) func(*run) error {
	return func(r *run) error {
		lat := r.lats[0]
		var submitErr error
		for i, sub := range subs {
			lat.Engine.Schedule(sim.Duration(i)*gap, func() {
				submitErr = errors.Join(submitErr, r.submit(sub))
			})
		}
		lat.Engine.RunUntil(lat.Engine.Now().Add(sim.Duration(len(subs)) * gap))
		return submitErr
	}
}

// batchesDone is the done-predicate of a batch workload: every batch
// any shard accepted is terminal.
func batchesDone(r *run) bool {
	for _, l := range r.lats {
		for _, id := range l.Service.Batches() {
			if st, err := l.Service.Status(id); err != nil || !st.Done {
				return false
			}
		}
	}
	return true
}

// drained is the done-predicate of an arrival-process workload: every
// scheduled arrival delivered, every front door empty, every grid job
// terminal. It reads counters only, so it stays cheap at 10^5 batches.
func drained(r *run) bool {
	if r.cluster != nil && r.cluster.PendingArrivals() != 0 {
		return false
	}
	for _, l := range r.lats {
		if l.Service.IngestDepth() != 0 {
			return false
		}
		if st := l.Scheduler.Stats(); st.Completed+st.Failed < st.Submitted {
			return false
		}
	}
	return true
}

// collect gathers the outcome of a finished run.
func (r *run) collect() error {
	o := r.outcome
	var turnSum sim.Duration
	var doneTimes []sim.Time
	for k, l := range r.lats {
		if errs := l.Service.IngestErrors(); len(errs) > 0 {
			return fmt.Errorf("experiments: shard %d deferred ingest error: %w", k, errs[0])
		}
		if err := l.DurableErr(); err != nil {
			return fmt.Errorf("experiments: shard %d durable error: %w", k, err)
		}
		st := l.Scheduler.Stats()
		o.sched.Submitted += st.Submitted
		o.sched.Completed += st.Completed
		o.sched.Failed += st.Failed
		o.sched.Retries += st.Retries
		o.sched.Bundled += st.Bundled
		o.sched.UnplaceableAt += st.UnplaceableAt
		o.sched.Requeued += st.Requeued
		o.sched.SubmitRetries += st.SubmitRetries
		o.sched.BreakerTrips += st.BreakerTrips
		if l.Faults != nil {
			for kind, n := range l.Faults.Injected() {
				o.injected[kind] += n
			}
		}

		ids := l.Service.Batches()
		jobs := 0
		for _, id := range ids {
			b, _ := l.Service.Batch(id)
			jobs += len(b.Jobs)
			o.lastBatchDone = max(o.lastBatchDone, b.DoneAt)
			for _, j := range b.Jobs {
				switch j.Status {
				case metasched.StatusCompleted:
					o.m.Completed++
					turnSum += j.CompletedAt.Sub(j.SubmittedAt)
					doneTimes = append(doneTimes, j.CompletedAt)
				case metasched.StatusFailed:
					o.m.Failed++
				}
			}
		}
		o.m.Jobs += jobs

		// A deployment without a front door sheds nothing and turns every
		// submission into a batch on the spot; only a door can lose one.
		quota, overload := l.Service.Sheds()
		shedEvents := 0
		if l.Service.AdmitActive() {
			l.Obs.Journal.Each(func(ev obs.Event) {
				if ev.Stage == obs.StageShed {
					shedEvents++
				}
			})
		}
		offered := len(ids)
		if r.cfg.Ingest.Enabled() {
			offered = r.offered[k]
		}
		if shedEvents != quota+overload ||
			!conserved(l.Obs.Journal.TerminalCounts(), jobs, offered, len(ids), quota+overload) {
			o.conserved = false
		}
		o.totalOffered += offered
		o.accepted += len(ids)
		o.shedQuota += quota
		o.shedOverload += overload

		for _, name := range l.ResourceNames() {
			res, _ := l.Resource(name)
			rs := res.Stats()
			o.m.UsefulCPUHours += rs.CPUSeconds / 3600
			o.m.WastedCPUHours += rs.WastedCPU / 3600
			o.m.Preemptions += rs.Preemptions
		}
		for _, s := range l.Obs.Registry.Snapshot() {
			switch s.Name {
			case "lattice_gsbl_ingest_wait_seconds":
				addHistogram(&o.ingestWait, s)
			case "lattice_sched_placement_wait_seconds":
				addHistogram(&o.placeWait, s)
			}
		}
		o.shardDigests = append(o.shardDigests, l.Obs.Journal.Digest())
	}
	if o.m.Completed > 0 {
		slices.Sort(doneTimes)
		o.m.Makespan = doneTimes[len(doneTimes)-1].Sub(r.origin)
		o.m.MeanTurnround = turnSum / sim.Duration(o.m.Completed)
		if idx := min(int(float64(o.m.Jobs)*0.95), len(doneTimes)) - 1; idx >= 0 {
			o.m.P95Completion = doneTimes[idx].Sub(r.origin)
		}
	}
	if r.cluster != nil {
		o.digest = r.cluster.Digest()
		o.m.Exposition = r.cluster.MergedExposition()
	} else {
		o.digest = o.shardDigests[0]
		o.m.Exposition = r.lats[0].Obs.Exposition()
	}
	return nil
}

// same reports that two runs are indistinguishable from outside: same
// journal digest, same final metrics.
func (o *outcome) same(p *outcome) bool {
	return o.digest == p.digest && o.m.Exposition == p.m.Exposition
}

// row renders the run's line of a results table: its name, job
// counts and makespan, then the given counters.
func (o *outcome) row(name string, counters ...int) []string {
	cells := []string{name, strconv.Itoa(o.m.Jobs), strconv.Itoa(o.m.Completed), strconv.Itoa(o.m.Failed), hours(o.m.Makespan)}
	for _, c := range counters {
		cells = append(cells, strconv.Itoa(c))
	}
	return cells
}

// conserved is one shard's exactly-one-terminal verdict: every job the
// journal saw submitted recorded exactly one terminal event, none of
// the shard's jobs is missing from the journal, and every submission
// offered to the shard was either accepted as a batch or shed.
func conserved(terminal map[string]int, jobs, offered, accepted, shed int) bool {
	if len(terminal) < jobs || accepted+shed != offered {
		return false
	}
	for _, n := range terminal {
		if n != 1 {
			return false
		}
	}
	return true
}

// addHistogram folds one series of a histogram family into sum. The
// series of one family share their bucket bounds.
func addHistogram(sum *obs.SeriesSnapshot, s obs.SeriesSnapshot) {
	sum.Sum += s.Sum
	sum.Count += s.Count
	if sum.Buckets == nil {
		sum.Buckets = append(sum.Buckets, s.Buckets...)
		return
	}
	for i := range s.Buckets {
		sum.Buckets[i].Count += s.Buckets[i].Count
	}
}

// mean is a histogram's mean observation, 0 when it has none.
func mean(h obs.SeriesSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// quantile estimates the q-quantile of a cumulative-bucket histogram
// by linear interpolation inside the bucket the quantile lands in. The
// +Inf bucket yields its lower bound: there is no upper edge to
// interpolate toward.
func quantile(h obs.SeriesSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := q * float64(h.Count)
	lo, cumPrev := 0.0, 0.0
	for _, b := range h.Buckets {
		cum := float64(b.Count)
		if cum >= target {
			inBucket := cum - cumPrev
			if inBucket <= 0 || b.UpperBound > 1e18 {
				return lo
			}
			return lo + (target-cumPrev)/inBucket*(b.UpperBound-lo)
		}
		lo, cumPrev = b.UpperBound, cum
	}
	return lo
}
