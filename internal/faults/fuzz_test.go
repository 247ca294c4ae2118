package faults

import (
	"fmt"
	"testing"

	"lattice/internal/lrm"
	"lattice/internal/obs"
	"lattice/internal/sim"
)

// fuzzKinds is every scriptable kind, in a fixed order for the byte
// decoder.
var fuzzKinds = []Kind{
	KindOutage, KindSubmitFail, KindMDSDrop, KindMDSStale, KindChurn,
	KindSlowResult, KindLostResult, KindDemandSpike, KindCapacityCollapse,
}

// fuzzBytes hands out the input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzRun is one decoded input: a schedule over two wrapped resources
// (res-b is also a Churner) and one demand hook, a job stream, and
// cancellations of some of those jobs.
type fuzzRun struct {
	sch     Schedule
	jobs    []fuzzJob
	cancels []fuzzCancel
	horizon sim.Time
}

type fuzzJob struct {
	at  sim.Time
	res int
}

type fuzzCancel struct {
	at  sim.Time
	job int
}

var fuzzRunFor = [2]sim.Duration{15 * sim.Minute, 40 * sim.Minute}

func decodeFuzzRun(data []byte) fuzzRun {
	b := fuzzBytes(data)
	var r fuzzRun
	minutes := func(n int) sim.Duration { return sim.Duration(n) * sim.Minute }
	last := sim.Time(0)
	for n := b.next() % 9; n > 0; n-- {
		ev := Event{
			Kind:     fuzzKinds[b.next()%len(fuzzKinds)],
			At:       sim.Time(minutes(5 * (b.next() % 32))),
			Duration: minutes(10 * (b.next() % 7)),
			P:        float64(b.next()%9) / 8,
			Delay:    minutes(5 * (b.next() % 4)),
			Hosts:    b.next() % 4,
			Factor:   float64(b.next()) / 32,
		}
		switch kinds[ev.Kind].on {
		case wrapped:
			ev.Resource = []string{"res-a", "res-b"}[b.next()%2]
		case churner:
			ev.Resource = "res-b"
		case demand:
			ev.Resource = "door"
		}
		r.sch.Events = append(r.sch.Events, ev)
		last = max(last, ev.At.Add(ev.Duration))
	}
	if b.next()%4 == 0 {
		f := Flap{
			Resource: []string{"res-a", "res-b"}[b.next()%2],
			MeanUp:   minutes(10 * (1 + b.next()%6)),
			MeanDown: minutes(5 * (1 + b.next()%4)),
			Start:    sim.Time(minutes(10 * (b.next() % 8))),
		}
		f.Until = f.Start.Add(minutes(30 * (1 + b.next()%4)))
		r.sch.Flaps = append(r.sch.Flaps, f)
		last = max(last, f.Until)
	}
	if b.next()%4 == 0 {
		r.sch.CrashAt = append(r.sch.CrashAt, sim.Time(minutes(b.next())))
	}
	for n := b.next() % 24; n > 0; n-- {
		j := fuzzJob{at: sim.Time(minutes(4 * (b.next() % 48))), res: b.next() % 2}
		r.jobs = append(r.jobs, j)
		last = max(last, j.at)
	}
	for n := b.next() % 4; n > 0 && len(r.jobs) > 0; n-- {
		r.cancels = append(r.cancels, fuzzCancel{at: sim.Time(minutes(4 * (b.next() % 48))), job: b.next() % len(r.jobs)})
	}
	// Past the last window edge, flap horizon and submission, a job
	// runs at most 40 minutes and its result arrives at most 15 late.
	r.horizon = last.Add(fuzzRunFor[1] + 15*sim.Minute + sim.Minute)
	return r
}

// FuzzInjector drives generated schedules through the injector. A
// schedule Validate accepts, Apply must arm; then each accepted job
// that no Cancel reached ends exactly once, a cancelled one at most
// once, a refused one never, no wrapper still tracks a job in flight,
// and the same input journals the same digest twice.
func FuzzInjector(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{
		8,
		1, 2, 3, 4, 0, 0, 0, 0, // submit-fail on res-a
		0, 10, 2, 0, 0, 0, 0, 1, // outage on res-b
		6, 3, 5, 4, 2, 0, 0, 0, // lost-result on res-a
		5, 6, 5, 8, 3, 0, 0, 0, // slow-result on res-a
		4, 12, 0, 0, 0, 3, 0, // churn on res-b
		7, 1, 2, 0, 0, 0, 96, // demand spike
		8, 8, 3, 0, 0, 0, 16, 1, // capacity collapse on res-b
		2, 20, 1, 0, 0, 0, 0, 0, // mds-drop on res-a
		0, 0, 3, 2, 5, 3, // flap on res-a
		0, 90, // crash at 90 minutes
		20, // jobs, 8 minutes apart, alternating resources
		0, 0, 2, 1, 4, 0, 6, 1, 8, 0, 10, 1, 12, 0, 14, 1, 16, 0, 18, 1,
		20, 0, 22, 1, 24, 0, 26, 1, 28, 0, 30, 1, 32, 0, 34, 1, 36, 0, 38, 1,
		3, 5, 4, 12, 9, 20, 2, // cancellations
	})
	f.Add([]byte{2, 1, 2, 3, 4, 0, 0, 0, 0, 1, 3, 3, 4, 0, 0, 0, 0, 3, 3, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := decodeFuzzRun(data)
		digest := ""
		for pass := 0; pass < 2; pass++ {
			d, ok := runFuzzRun(t, r)
			if !ok {
				return
			}
			if pass == 1 && d != digest {
				t.Fatalf("same input journaled %s, then %s", digest, d)
			}
			digest = d
		}
	})
}

// runFuzzRun plays r and checks its outcomes; ok is false when
// Validate refused the schedule.
func runFuzzRun(t *testing.T, r fuzzRun) (digest string, ok bool) {
	eng := sim.NewEngine()
	hub := obs.New(eng)
	in := NewInjector(eng, sim.NewRNG(3), hub)
	in.SetCrashStops(false)
	res := []lrm.LRM{
		in.Wrap(newFakeLRM(eng, "res-a", fuzzRunFor[0])),
		in.Wrap(&fakeChurner{fakeLRM: newFakeLRM(eng, "res-b", fuzzRunFor[1])}),
	}
	in.AttachDemand("door", func(float64) {})
	if err := r.sch.Validate(); err != nil {
		if in.Apply(r.sch) == nil {
			t.Fatalf("Apply armed a schedule Validate refused (%v): %+v", err, r.sch)
		}
		return "", false
	}
	if err := in.Apply(r.sch); err != nil {
		t.Fatalf("Apply refused a valid schedule: %v\n%+v", err, r.sch)
	}
	type state struct{ accepted, cancelled, ends int }
	st := make([]state, len(r.jobs))
	for i, j := range r.jobs {
		id := fmt.Sprintf("j%d", i)
		eng.ScheduleAt(j.at, func() {
			job := &lrm.Job{ID: id, Work: 1, Owner: &lrm.Callbacks{
				OnComplete: func(sim.Time) { st[i].ends++ },
				OnFail:     func(sim.Time, string) { st[i].ends++ },
			}}
			if res[j.res].Submit(job) == nil {
				st[i].accepted++
			}
		})
	}
	for _, c := range r.cancels {
		eng.ScheduleAt(c.at, func() {
			if st[c.job].accepted > 0 {
				st[c.job].cancelled++
			}
			res[r.jobs[c.job].res].Cancel(fmt.Sprintf("j%d", c.job))
		})
	}
	eng.RunUntil(r.horizon)
	for i, s := range st {
		switch {
		case s.accepted == 0 && s.ends != 0:
			t.Fatalf("refused job j%d ended %d times\n%+v", i, s.ends, r)
		case s.accepted > 0 && s.cancelled == 0 && s.ends != 1:
			t.Fatalf("accepted job j%d ended %d times\n%+v", i, s.ends, r)
		case s.ends > 1:
			t.Fatalf("cancelled job j%d ended %d times\n%+v", i, s.ends, r)
		}
	}
	for _, name := range []string{"res-a", "res-b"} {
		tg := in.targets[name]
		if len(tg.inflight) != 0 {
			t.Fatalf("%s still tracks %d jobs in flight\n%+v", name, len(tg.inflight), r)
		}
		for k, ev := range tg.open {
			if ev != nil {
				t.Fatalf("%s window %s still open past the horizon\n%+v", name, k, r)
			}
		}
	}
	return hub.Journal.Digest(), true
}
