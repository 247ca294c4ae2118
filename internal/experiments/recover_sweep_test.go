package experiments

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"lattice/internal/admit"
	"lattice/internal/core"
	"lattice/internal/dag"
	"lattice/internal/faults"
	"lattice/internal/gsbl"
	"lattice/internal/shard"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// recoverTuple is one generated crash-recovery scenario. Recovery must
// make it indistinguishable from its uninterrupted twin whatever the
// values: shard count, door rate, admission, load shape, faults, kill
// instants and a torn log tail.
type recoverTuple struct {
	Shards int // 1, 2 or 4 coordinator shards
	// Door is the front door's virtual seconds per submission (a
	// quarter second more per replicate); 0 is no door.
	Door  float64
	Admit bool // admission control in front of the door
	// DAG adds a four-stage workflow on every shard to the arrivals.
	DAG bool
	// Faults has bit k set when shard k runs a hostile schedule on its
	// first resource.
	Faults uint8
	// Kills[k] are shard k's kill instants.
	Kills [][]sim.Time
	Tear  bool // rip the last bytes off the first killed log
	Users int  // arrivals, Gap apart from t = 1 s
	Gap   sim.Duration
	Seed  int64
}

// tupleFrom decodes a tuple from bytes, one choice per byte — a missing
// byte reads as zero — so every byte string is a valid tuple and the
// fuzzer explores the same space as the seeded table. Kill instants
// fall anywhere inside the arrival window, so every kill lands before
// the run can be done, mostly while the doors are still working off a
// backlog. A tuple always kills at least one shard.
func tupleFrom(b []byte) recoverTuple {
	next := func() int {
		if len(b) == 0 {
			return 0
		}
		v := int(b[0])
		b = b[1:]
		return v
	}
	t := recoverTuple{
		Shards: []int{1, 2, 4}[next()%3],
		Door:   []float64{0, 2, 5, 10, 20}[next()%5],
		Users:  8 + next()%40,
		Gap:    []sim.Duration{1, 3, 7, 15, 40}[next()%5],
		Seed:   int64(1 + next()%16),
	}
	flags := next()
	t.Admit = t.Door > 0 && flags&1 != 0
	t.DAG = flags&2 != 0
	t.Tear = flags&4 != 0
	t.Faults = uint8(flags>>3) & (1<<t.Shards - 1)
	window := float64(t.Gap) * float64(t.Users)
	t.Kills = make([][]sim.Time, t.Shards)
	kills := 0
	for k := range t.Kills {
		for n := next() % 3; n > 0; n-- {
			t.Kills[k] = append(t.Kills[k], sim.Time(window*float64(next())/256))
			kills++
		}
	}
	if kills == 0 {
		t.Kills[0] = []sim.Time{sim.Time(window / 2)}
	}
	return t
}

// scenario is the tuple as data over the runner: durable, so twin's
// control is the same schedule in memory with every kill journaled and
// disarmed.
func (t recoverTuple) scenario() scenario {
	return scenario{
		federation: func(seed int64) core.Config {
			cfg := doorFederation(seed, 8)
			if t.Door > 0 {
				cfg.Ingest = gsbl.IngestConfig{PerSubmissionSeconds: t.Door, PerReplicateSeconds: 0.25}
			}
			if t.Admit {
				cfg.Admit = admit.Config{UserRatePerHour: 60, UserBurst: 3, MaxQueueDepth: 6, MaxQueuedSeconds: 4 * t.Door}
			}
			return cfg
		},
		shards:   t.Shards,
		faults:   t.faults,
		durable:  true,
		tear:     t.Tear,
		step:     10 * sim.Minute,
		deadline: 30 * sim.Day,
		load: func(r *run) error {
			for i := 0; i < t.Users; i++ {
				r.arrive(sim.Time(sim.Duration(i)*t.Gap+1), t.arrival(i, r.seed))
			}
			if !t.DAG {
				return nil
			}
			for k, l := range r.lats {
				wf := dag.StandardAnalysis("sweep", fmt.Sprintf("wf%d@sweep.example.edu", k), r.seed, smallSubmission("", r.seed).Spec, 3, 6)
				if _, err := l.SubmitWorkflow(wf); err != nil {
					return err
				}
			}
			return nil
		},
		done: func(r *run) bool {
			if !drained(r) {
				return false
			}
			for _, l := range r.lats {
				for _, id := range l.Workflows.Runs() {
					if st, err := l.Workflows.Status(id); err != nil || st.State == dag.RunRunning {
						return false
					}
				}
			}
			return true
		},
	}
}

// arrival is the i-th arrival's submission. A few users submit twice,
// so quotas have someone to bite.
func (t recoverTuple) arrival(i int, seed int64) workload.Submission {
	return smallSubmission(fmt.Sprintf("u%02d@sweep.example.edu", i%(t.Users/2+1)), seed+int64(i))
}

// offered counts the arrivals the cluster routes to shard k.
func (t recoverTuple) offered(k int) int {
	n := 0
	for i := 0; i < t.Users; i++ {
		if shard.Route(t.arrival(i, 0).UserEmail, "core", t.Shards) == k {
			n++
		}
	}
	return n
}

// faults is shard k's schedule: its kills, and with its Faults bit an
// outage and a flaky gatekeeper on the first resource it owns.
func (t recoverTuple) faults(k int) *faults.Schedule {
	sch := &faults.Schedule{CrashAt: t.Kills[k]}
	if t.Faults&(1<<k) != 0 {
		target := fmt.Sprintf("pbs%02d", k)
		sch.Events = []faults.Event{
			{At: sim.Time(2 * sim.Minute), Kind: faults.KindOutage, Resource: target, Duration: 20 * sim.Minute},
			{At: 0, Kind: faults.KindSubmitFail, Resource: target, Duration: sim.Hour, P: 0.5},
		}
	}
	return sch
}

// checkTuple runs the tuple beside its twin and holds the recovered run
// to it: every shard's journal digest, every batch's trace, and
// conservation — each job exactly one terminal, each arrival a batch or
// a shed — on both runs.
func checkTuple(t *testing.T, b []byte) {
	tu := tupleFrom(b)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s\nreproduce: go test ./internal/experiments -run 'TestRecoverSweep/%x' (tuple %+v)", fmt.Sprintf(format, args...), b, tu)
	}
	crashed, control, err := twin(tu.scenario(), tu.Seed)
	if err != nil {
		fail("%v", err)
	}
	// Every kill is durable: a shard killed k times recovers exactly k
	// times, plus once more when the tear took a kill's own record and
	// the rebuild stopped short of that kill, so it fired again.
	for k, ks := range tu.Kills {
		want := len(ks)
		if crashed.tornKill == k {
			want++
		}
		if got := crashed.crashed[k]; got != want {
			fail("shard %d killed %d times recovered %d times, want %d (torn kill record on shard %d)",
				k, len(ks), got, want, crashed.tornKill)
		}
	}
	if !slices.Equal(crashed.shardDigests, control.shardDigests) {
		fail("shard digests %v, uninterrupted %v", short(crashed.shardDigests), short(control.shardDigests))
	}
	for k, l := range crashed.lats {
		ctl := control.lats[k]
		ids := ctl.Service.Batches()
		if got := l.Service.Batches(); !slices.Equal(got, ids) {
			fail("shard %d: batches %v, uninterrupted %v", k, got, ids)
		}
		for _, id := range ids {
			got, _ := l.Obs.Journal.Trace(id)
			want, _ := ctl.Obs.Journal.Trace(id)
			if !reflect.DeepEqual(got, want) {
				fail("shard %d: trace of %s differs from the uninterrupted run's", k, id)
			}
		}
		for _, o := range []*outcome{crashed, control} {
			if err := conservedWithSheds(o.lats[k], shard.Origin(k, "core"), tu.offered(k)); err != nil {
				fail("shard %d: %v", k, err)
			}
		}
	}
}

// conservedWithSheds checks one shard's books: every job the journal
// saw has exactly one terminal, every job of every batch is in the
// journal, no arrival is still pending, and the offered arrivals are
// the shard's batches of their origin plus its sheds.
func conservedWithSheds(l *core.Lattice, origin string, offered int) error {
	terminal := l.Obs.Journal.TerminalCounts()
	for job, n := range terminal {
		if n != 1 {
			return fmt.Errorf("job %s has %d terminal events", job, n)
		}
	}
	arrived := 0
	for _, id := range l.Service.Batches() {
		bt, _ := l.Service.Batch(id)
		if bt.Origin == origin {
			arrived++
		}
		for _, j := range bt.Jobs {
			if terminal[j.ID] != 1 {
				return fmt.Errorf("job %s of %s was never journaled terminal", j.ID, id)
			}
		}
	}
	quota, overload := l.Service.Sheds()
	if l.Service.Arrivals() != 0 || arrived+quota+overload != offered {
		return fmt.Errorf("%d arrivals pending; %d accepted + %d + %d shed of %d offered",
			l.Service.Arrivals(), arrived, quota, overload, offered)
	}
	return nil
}

func short(ds []string) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d[:12]
	}
	return out
}

// sweepBytes is the i-th tuple of the seeded table.
func sweepBytes(i int) []byte {
	rng := sim.NewRNG(int64(i)).Stream("recover-sweep")
	b := make([]byte, 16)
	for j := range b {
		b[j] = byte(rng.Intn(256))
	}
	return b
}

// TestRecoverSweep runs 200 generated tuples. A failure prints the
// subtest that reproduces it.
func TestRecoverSweep(t *testing.T) {
	for i := 0; i < 200; i++ {
		b := sweepBytes(i)
		t.Run(fmt.Sprintf("%x", b), func(t *testing.T) {
			t.Parallel()
			checkTuple(t, b)
		})
	}
}

// FuzzRecover explores the tuple space past the seeded table.
func FuzzRecover(f *testing.F) {
	for i := 0; i < 3; i++ {
		f.Add(sweepBytes(i))
	}
	f.Fuzz(checkTuple)
}
