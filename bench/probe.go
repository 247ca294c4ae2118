package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lattice/internal/admit"
	"lattice/internal/estimate"
	"lattice/internal/forest"
	"lattice/internal/obs"
	"lattice/internal/shard"
	"lattice/internal/sim"
	"lattice/internal/wal"
	"lattice/internal/workload"
)

// A probe drives one layer alone, from outside, with the op count the
// traced pass recorded, and reports nanoseconds per op. Each probe
// runs probeReps times and reports the median; each checks its own
// output, so a probe that stops doing the work it claims fails the
// pass instead of reporting a flattering number.
const probeReps = 3

// probeCap bounds a probe's op count so the probes of one pass stay
// within a couple of seconds.
const probeCap = 200000

// record stores a probe's median ns/op and the op count it drove.
func (p *pass) record(metric string, ops int, nsPerOp []float64) {
	p.Layer[metric] = median(nsPerOp)
	if p.ProbeOps == nil {
		p.ProbeOps = map[string]int{}
	}
	p.ProbeOps[metric] = ops
}

// simProbe fires exactly n handlers through a fresh engine: 1024
// self-rescheduling timers, every tenth firing also scheduling an
// event and cancelling it.
func simProbe(p *pass, n int) {
	var ns []float64
	for rep := 0; rep < probeReps; rep++ {
		eng := sim.NewEngine()
		fired, scheduled := 0, 0
		var tick func()
		tick = func() {
			fired++
			if fired%10 == 0 {
				eng.Cancel(eng.Schedule(5, tick))
			}
			if scheduled < n {
				scheduled++
				eng.Schedule(sim.Duration(1+fired%7), tick)
			}
		}
		for i := 0; i < 1024 && scheduled < n; i++ {
			scheduled++
			eng.Schedule(sim.Duration(i%13), tick)
		}
		t0 := time.Now()
		eng.Run()
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(n))
		if fired != n || eng.Steps() != uint64(n) {
			p.failf("sim probe fired %d handlers in %d steps, want %d", fired, eng.Steps(), n)
		}
	}
	p.record("sim.probe_ns_per_event", n, ns)
}

// probeNames is a ring of batch and job IDs shaped like a shard's, so
// the journal and log probes hash and encode realistic strings without
// timing their formatting.
func probeNames() (batches, jobs []string) {
	batches = make([]string, 1024)
	jobs = make([]string, 1024)
	for i := range batches {
		batches[i] = fmt.Sprintf("shard0-batch-%06d", i)
		jobs[i] = fmt.Sprintf("shard0-batch-%06d-r0000", i)
	}
	return batches, jobs
}

// probeStages is one job's journal lifecycle on the PBS federation.
var probeStages = []obs.Stage{obs.StageSubmit, obs.StageValidate, obs.StagePlace, obs.StageDispatch, obs.StageRun, obs.StageComplete}

// obsProbe records n lifecycle events into a fresh journal and reads
// its streaming digest, then observes n samples into a histogram. The
// digest must repeat across reps.
func obsProbe(p *pass, n int) {
	batches, jobs := probeNames()
	var rec, observe []float64
	digest := ""
	for rep := 0; rep < probeReps; rep++ {
		j := obs.NewJournal(sim.NewEngine())
		t0 := time.Now()
		for i := 0; i < n; i++ {
			k := (i / len(probeStages)) % len(batches)
			j.Record(batches[k], jobs[k], probeStages[i%len(probeStages)], "pbs03", "")
		}
		d := j.Digest()
		rec = append(rec, float64(time.Since(t0).Nanoseconds())/float64(n))
		if j.Len() != n {
			p.failf("obs probe journal holds %d events, want %d", j.Len(), n)
		}
		if digest == "" {
			digest = d
		} else if d != digest {
			p.failf("obs probe digest %.12s differs from the first rep's %.12s", d, digest)
		}

		h := obs.NewRegistry().Histogram("probe_wait_seconds", "probe", nil)
		t0 = time.Now()
		for i := 0; i < n; i++ {
			h.Observe(float64(i%977) * 0.37)
		}
		observe = append(observe, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	p.record("obs.probe_ns_per_record", n, rec)
	p.record("obs.probe_ns_per_observe", n, observe)
}

// walProbe appends n records shaped like a shard's (genesis, then six
// stage records and one queued submission per job) to a fresh log with default
// options, then loads them back: Load must return exactly the records
// appended and the same last sequence number.
func walProbe(p *pass, root string, n int, sub workload.Submission) error {
	batches, jobs := probeNames()
	var appendNs, loadS []float64
	for rep := 0; rep < probeReps; rep++ {
		dir := filepath.Join(root, fmt.Sprintf("walprobe%d", rep))
		lg, err := wal.Create(dir, wal.Options{})
		if err != nil {
			return err
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			seq := uint64(i + 1)
			k := (i / 7) % len(batches)
			at := sim.Time(float64(i) * 0.25)
			switch {
			case i == 0:
				lg.Append(wal.Record{Seq: seq, Kind: wal.KindGenesis, Seed: 1})
			case i%7 == 0:
				lg.Append(wal.Record{Seq: seq, At: at, Kind: wal.KindSubmission, Origin: "shard0/core", Sub: &sub, Queued: true})
			default:
				lg.Append(wal.Record{Seq: seq, At: at, Kind: wal.KindStage, Batch: batches[k], Job: jobs[k], Stage: string(probeStages[i%7-1]), Resource: "pbs03"})
			}
		}
		err = lg.Close()
		appendNs = append(appendNs, float64(time.Since(t0).Nanoseconds())/float64(n))
		if err != nil {
			return err
		}
		t0 = time.Now()
		state, err := wal.Load(dir)
		loadS = append(loadS, time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		if len(state.Tail) != n || state.LastSeq != uint64(n) || state.Torn {
			p.failf("wal probe loaded %d records up to seq %d (torn %v), appended %d", len(state.Tail), state.LastSeq, state.Torn, n)
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	p.record("wal.probe_ns_per_append", n, appendNs)
	p.Layer["wal.probe_load_s"] = median(loadS)
	p.ProbeOps["wal.probe_load_s"] = n
	return nil
}

// routeProbe routes every submitter of the pass, probeReps times.
func routeProbe(p *pass, subs []workload.Submission, shards int) {
	var ns []float64
	sum := 0
	for rep := 0; rep < probeReps; rep++ {
		t0 := time.Now()
		for i := range subs {
			sum += shard.Route(subs[i].UserEmail, "core", shards)
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(len(subs)))
	}
	if shards == 1 && sum != 0 {
		p.failf("route probe sent a user to shard %d of 1", sum)
	}
	p.record("shard.probe_ns_per_route", len(subs), ns)
}

// admitProbe makes n admission decisions — quota charge, fair-queue
// push, overflow check, pop — for the pass's round-robin user pool.
func admitProbe(p *pass, cfg admit.Config, subs []workload.Submission, n int) error {
	var ns []float64
	for rep := 0; rep < probeReps; rep++ {
		ctl, err := admit.NewController(cfg)
		if err != nil {
			return err
		}
		served := 0
		t0 := time.Now()
		for i := 0; i < n; i++ {
			user := subs[i%len(subs)].UserEmail
			if rej := ctl.TakeQuota(user, 1, sim.Time(float64(i))); rej != nil {
				continue
			}
			ctl.Push(user, 1.25, nil)
			ctl.Overflow(0.5)
			if ctl.Pop() != nil {
				served++
			}
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(n))
		if served == 0 || ctl.Len() != 0 {
			p.failf("admit probe served %d of %d with %d left queued", served, n, ctl.Len())
		}
	}
	p.record("admit.probe_ns_per_decision", n, ns)
	return nil
}

// estimateProbe bootstraps the 150-job estimator, trains its forest
// alone and makes n predictions.
func estimateProbe(p *pass, seed int64, spec workload.JobSpec, n int) error {
	var boot, train, predict []float64
	for rep := 0; rep < probeReps; rep++ {
		t0 := time.Now()
		est, err := estimate.Bootstrap(estimate.DefaultConfig(), workload.NewGenerator(seed+1), 150)
		boot = append(boot, time.Since(t0).Seconds())
		if err != nil {
			return err
		}

		specs, secs := workload.NewGenerator(seed + 1).TrainingJobs(150)
		ds := &forest.Dataset{Schema: estimate.Schema()}
		for i := range specs {
			if err := ds.Append(estimate.Features(&specs[i]), secs[i]); err != nil {
				return err
			}
		}
		t0 = time.Now()
		f, err := forest.Train(ds, forest.DefaultConfig())
		train = append(train, time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		if f.NumTrees() == 0 {
			p.failf("forest probe trained no trees")
		}

		t0 = time.Now()
		for i := 0; i < n; i++ {
			v, err := est.Predict(&spec)
			if err != nil {
				return err
			}
			if v <= 0 {
				p.failf("estimate probe predicted %v seconds", v)
				break
			}
		}
		predict = append(predict, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	p.Layer["estimate.probe_bootstrap_s"] = median(boot)
	p.Layer["forest.probe_train_s"] = median(train)
	p.record("forest.probe_ns_per_predict", n, predict)
	p.ProbeOps["estimate.probe_bootstrap_s"] = 150
	p.ProbeOps["forest.probe_train_s"] = 150
	return nil
}

func capped(n float64) int {
	return max(1, min(int(n), probeCap))
}

// shares turns the probe rates into estimated shares of the pass's
// wall time. The coordinator is single-threaded, so a layer can save
// at most its share; what the probes do not cover — gsbl, metasched,
// the LRMs — stays in core.unattributed_share until the engine tags
// events by owner.
func shares(p *pass) {
	wallNs := p.E2E["wall_s"] * 1e9
	m := p.Layer
	m["sim.est_share"] = m["sim.probe_ns_per_event"] * m["sim.events"] / wallNs
	m["obs.est_share"] = (m["obs.probe_ns_per_record"]*m["obs.journal_events"] + m["obs.probe_ns_per_observe"]*m["obs.observations"]) / wallNs
	walShare := m["wal.probe_ns_per_append"] * m["wal.records"] / wallNs
	m["core.unattributed_share"] = 1 - m["sim.est_share"] - m["obs.est_share"] - walShare
}

// probes runs the coordinator-layer probes a cluster workload has
// counts for.
func (r *clusterRun) probes(e *env, p *pass) error {
	m := p.Layer
	// The sim probe drives the pass's full event count: its self-check
	// is that it fires exactly sim.events handlers.
	simProbe(p, int(m["sim.events"]))
	obsProbe(p, capped(m["obs.journal_events"]))
	routeProbe(p, r.subs, r.spec.shards)
	if r.spec.admit.Enabled() {
		if err := admitProbe(p, r.spec.admit, r.subs, capped(float64(r.spec.users))); err != nil {
			return err
		}
	}
	if r.spec.durable {
		if err := os.MkdirAll(e.dir, 0o755); err != nil {
			return err
		}
		if err := walProbe(p, e.dir, capped(m["wal.records"]), r.subs[0]); err != nil {
			return err
		}
	}
	shares(p)
	return nil
}

// probes runs the probes batch2000 has counts for.
func (r *batchRun) probes(e *env, p *pass) error {
	m := p.Layer
	simProbe(p, int(m["sim.events"]))
	obsProbe(p, capped(m["obs.journal_events"]))
	if err := estimateProbe(p, e.seed, r.subs[0].Spec, capped(m["estimate.predicts"])); err != nil {
		return err
	}
	shares(p)
	return nil
}
