package experiments

import (
	"fmt"
	"slices"

	"lattice/internal/core"
	"lattice/internal/faults"
	"lattice/internal/gsbl"
	"lattice/internal/metasched"
	"lattice/internal/phylo"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// The scale-out experiment reproduces the paper's motivating scale
// problem: one coordinator process accepts every submission serially,
// so at portal scale the front door saturates long before the
// federation runs out of CPUs. It pushes a large simulated user
// population (10^5 by default) through clusters of 1, 2, 4 and 8
// coordinator shards and records how makespan, throughput, queue
// depth and waiting times respond — plus the determinism and
// crash-locality evidence that makes sharding safe: same-seed twin
// runs must produce bit-identical per-shard journals at every shard
// count, and killing one shard mid-run must recover from that shard's
// WAL alone while matching an uninterrupted twin digest-for-digest.

// scaleCrashShard is the shard the crash variant kills.
const scaleCrashShard = 2

// scaleArrivalWindow is the virtual span over which the user
// population submits: all runs see identical per-user arrival times,
// so shard counts differ only in how the same offered load is split.
const scaleArrivalWindow = 6 * sim.Hour

// doorFederation is the grid of the experiments that load the
// coordinator rather than the federation: n identical PBS clusters, so
// every partition has the same aggregate capacity per shard and the
// measured effect is pure front-door serialization, not resource
// luck. The estimator is off (TrainingJobs 0) and replicates are not
// bundled: one replicate is one grid job, so conservation counts are
// exact and the runs stay cheap at 10^5 submissions.
func doorFederation(seed int64, clusters int) core.Config {
	var res []core.ResourceSpec
	for i := 0; i < clusters; i++ {
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
		// The coordinator front door: one virtual second of
		// validation/staging per submission plus a quarter second per
		// replicate. At 10^5 one-replicate users this is ~35 virtual
		// hours of serialized accept work for a single coordinator —
		// the bottleneck sharding exists to divide.
		Ingest: gsbl.IngestConfig{PerSubmissionSeconds: 1.0, PerReplicateSeconds: 0.25},
	}
}

// scaleFederation is the scale experiment's grid: sixteen clusters.
func scaleFederation(seed int64) core.Config { return doorFederation(seed, 16) }

// smallSubmission is one user's workload in the same experiments: a
// single small GARLI replicate, cheap enough that the grid itself
// never saturates and the front door stays the measured bottleneck.
func smallSubmission(user string, seed int64) workload.Submission {
	return workload.Submission{
		Spec: workload.JobSpec{
			DataType: phylo.Nucleotide, SubstModel: "HKY85",
			RateHet: phylo.RateGamma, NumRateCats: 4, GammaShape: 0.6,
			NumTaxa: 12, SeqLength: 400, SearchReps: 1,
			StartingTree: phylo.StartStepwise, AttachmentsPerTaxon: 8, Seed: seed,
		},
		Replicates: 1,
		UserEmail:  user,
	}
}

// ScalePoint is one shard-count measurement of the scale experiment.
type ScalePoint struct {
	Shards    int
	Jobs      int
	Completed int
	Failed    int
	// MakespanHours is the virtual time from the first arrival until
	// the last batch finished, across all shards.
	MakespanHours float64
	// ThroughputPerHour is terminal jobs per virtual hour of makespan.
	ThroughputPerHour float64
	// MeanIngestWaitSeconds is the mean virtual time a submission
	// spent queued behind the coordinator front door.
	MeanIngestWaitSeconds float64
	// MeanPlaceWaitSeconds is the mean virtual time from grid-job
	// submission to dispatch.
	MeanPlaceWaitSeconds float64
	// PeakIngestDepth is the deepest front-door queue observed across
	// all shards, sampled hourly.
	PeakIngestDepth int
	// Conserved reports that every journaled job reached exactly one
	// terminal state and that job count matches the user count.
	Conserved bool
	// TwinMatch reports that a second same-seed run produced the
	// bit-identical cluster digest.
	TwinMatch bool
	// Digest is the cluster digest (folded per-shard journal digests).
	Digest string
}

// ScaleOutResult is the full scale experiment: the shard-count sweep
// plus the shard-local crash-recovery variant.
type ScaleOutResult struct {
	Users  int
	Points []ScalePoint
	// Monotonic reports that makespan strictly improved 1→2→4 shards.
	Monotonic bool

	// Crash variant (run at 4 shards with a hostile schedule aimed at
	// one shard's resources, plus a coordinator kill on that shard).
	CrashUsers int
	CrashShard int
	// CrashLocal reports that only the scheduled shard ever crashed
	// and recovery touched only that shard's WAL.
	CrashLocal bool
	// CrashRecoveries counts successful shard recoveries (≥1).
	CrashRecoveries int
	// CrashRecoveredInputs is how many durable inputs the recovered
	// shard replayed.
	CrashRecoveredInputs int
	// CrashConserved reports exactly-one-terminal across the crashed
	// cluster run.
	CrashConserved bool
	// CrashDigestsEqual reports that every shard's journal digest —
	// including the killed-and-recovered shard's — matches the
	// uninterrupted twin's.
	CrashDigestsEqual bool

	Rows [][]string
}

// scaleScenario pushes users through a cluster of the given shard
// count, observed hourly until every arrival is in and every job
// terminal. sch supplies per-shard fault schedules (nil: fault-free).
func scaleScenario(users, shards int, sch func(k int) *faults.Schedule, durable bool) scenario {
	return scenario{
		federation: scaleFederation,
		shards:     shards,
		faults:     sch,
		durable:    durable,
		step:       sim.Hour,
		deadline:   40 * sim.Day,
		load: func(r *run) error {
			for i := 0; i < users; i++ {
				at := sim.Time(sim.Duration(i) * scaleArrivalWindow / sim.Duration(users))
				r.arrive(at, smallSubmission(fmt.Sprintf("u%06d@scale.example.edu", i), r.seed))
			}
			return nil
		},
		done: drained,
	}
}

// scaleCrashFaults is the crash variant's hostile schedule: outage,
// gatekeeper refusals and MDS staleness on three of the killed
// shard's own resources (shard 2 of 4 owns pbs02/06/10/14 under the
// static partition), plus a coordinator kill mid-window. Other shards
// run fault-free — the experiment's claim is that they never notice.
func scaleCrashFaults(k int) *faults.Schedule {
	if k != scaleCrashShard {
		return nil
	}
	return &faults.Schedule{
		Events: []faults.Event{
			{At: sim.Time(1 * sim.Hour), Kind: faults.KindOutage, Resource: "pbs02", Duration: 6 * sim.Hour},
			{At: sim.Time(30 * sim.Minute), Kind: faults.KindSubmitFail, Resource: "pbs06", Duration: 8 * sim.Hour, P: 0.5},
			{At: sim.Time(2 * sim.Hour), Kind: faults.KindMDSStale, Resource: "pbs10", Duration: 4 * sim.Hour},
		},
		CrashAt: []sim.Time{sim.Time(3 * sim.Hour)},
	}
}

func scalePointOf(shards int, o *outcome) ScalePoint {
	p := ScalePoint{
		Shards:                shards,
		Jobs:                  o.sched.Submitted,
		Completed:             o.sched.Completed,
		Failed:                o.sched.Failed,
		MakespanHours:         o.lastBatchDone.Sub(0).Hours(),
		MeanIngestWaitSeconds: mean(o.ingestWait),
		MeanPlaceWaitSeconds:  mean(o.placeWait),
		PeakIngestDepth:       o.peakDepth,
		Conserved:             o.conserved,
		Digest:                o.digest,
	}
	if p.MakespanHours > 0 {
		p.ThroughputPerHour = float64(p.Completed+p.Failed) / p.MakespanHours
	}
	return p
}

// ScaleOut runs the full scale experiment at the default population:
// 10^5 users swept over 1/2/4/8 shards with same-seed twins, plus the
// 4-shard crash variant at 2×10^4 users.
func ScaleOut(seed int64) (*ScaleOutResult, error) {
	return ScaleOutSized(seed, 100000, 20000)
}

// ScaleOutSized is ScaleOut with explicit population sizes.
func ScaleOutSized(seed int64, users, crashUsers int) (*ScaleOutResult, error) {
	r := &ScaleOutResult{Users: users, CrashUsers: crashUsers, CrashShard: scaleCrashShard}
	for _, n := range []int{1, 2, 4, 8} {
		first, again, err := twin(scaleScenario(users, n, nil, false), seed)
		if err != nil {
			return nil, err
		}
		p := scalePointOf(n, first)
		p.TwinMatch = first.digest == again.digest
		r.Points = append(r.Points, p)
	}
	r.Monotonic = len(r.Points) >= 3 &&
		r.Points[1].MakespanHours < r.Points[0].MakespanHours &&
		r.Points[2].MakespanHours < r.Points[1].MakespanHours

	// Crash variant: the kill armed and the dead shard recovered from
	// its own WAL, beside the uninterrupted twin.
	crashed, base, err := twin(scaleScenario(crashUsers, 4, scaleCrashFaults, true), seed)
	if err != nil {
		return nil, err
	}
	r.CrashLocal = len(crashed.crashed) == 1 && crashed.crashed[scaleCrashShard] >= 1
	r.CrashRecoveries = crashed.recoveries
	r.CrashRecoveredInputs = crashed.replayed
	r.CrashConserved = crashed.conserved && base.conserved
	r.CrashDigestsEqual = slices.Equal(crashed.shardDigests, base.shardDigests)

	for _, p := range r.Points {
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", p.Shards),
			fmt.Sprintf("%d", p.Jobs),
			fmt.Sprintf("%.1f h", p.MakespanHours),
			fmt.Sprintf("%.0f", p.ThroughputPerHour),
			fmt.Sprintf("%.0f s", p.MeanIngestWaitSeconds),
			fmt.Sprintf("%.1f s", p.MeanPlaceWaitSeconds),
			fmt.Sprintf("%d", p.PeakIngestDepth),
			pass(p.Conserved),
			pass(p.TwinMatch),
		})
	}
	return r, nil
}

func (r *ScaleOutResult) String() string {
	s := fmt.Sprintf("Scale-out — %d users through 1/2/4/8 coordinator shards (twin runs per point)\n", r.Users)
	s += table([]string{"shards", "jobs", "makespan", "jobs/h", "ingest-wait", "place-wait", "peak-depth", "conserved", "twin"}, r.Rows)
	s += fmt.Sprintf("makespan strictly improves 1→2→4 shards: %s\n", pass(r.Monotonic))
	s += fmt.Sprintf("crash variant (%d users, 4 shards, kill shard %d): local recovery %s (%d recoveries, %d inputs replayed), conservation %s, all shard digests == uninterrupted twin %s\n",
		r.CrashUsers, r.CrashShard, pass(r.CrashLocal), r.CrashRecoveries, r.CrashRecoveredInputs,
		pass(r.CrashConserved), pass(r.CrashDigestsEqual))
	return s
}
