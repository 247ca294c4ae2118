package metasched

import (
	"fmt"
	"slices"
	"testing"

	"lattice/internal/obs"
	"lattice/internal/sim"
)

// breakerModel is the circuit breaker restated as a reference: closed
// while fewer than threshold failures run in a row, then open until a
// cooldown ends, then half-open until one probe goes out, then
// probing until that probe's outcome closes or reopens it. Any
// success closes it; any failure while open restarts the cooldown.
type breakerModel struct {
	threshold, fails, trips int
	open, probing           bool
	until                   sim.Time
	events                  []string
}

func (m *breakerModel) allows(now sim.Time) bool {
	return !m.open || (now >= m.until && !m.probing)
}

func (m *breakerModel) dispatch() {
	if m.open && !m.probing {
		m.probing = true
		m.events = append(m.events, "half-open probe dispatched")
	}
}

func (m *breakerModel) outcome(ok bool, now sim.Time) {
	switch {
	case ok && m.open:
		m.open, m.probing, m.fails = false, false, 0
		m.events = append(m.events, "closed after successful probe")
	case ok:
		m.fails = 0
	case m.open:
		if m.probing {
			m.events = append(m.events, "probe failed; reopened")
		}
		m.probing, m.until = false, now+sim.Time(10*sim.Minute)
	case m.fails+1 == m.threshold:
		m.open, m.fails, m.until = true, 0, now+sim.Time(10*sim.Minute)
		m.trips++
		m.events = append(m.events, fmt.Sprintf("open after %d consecutive failures; probe after 600s", m.threshold))
	default:
		m.fails++
	}
}

// TestBreakerMatchesReferenceModel drives one resource's circuit
// through generated programs of dispatches, outcomes and clock
// advances at thresholds 1 to 6, and after every step compares what
// the scheduler reports — admission, open and probe state, the trip
// count, the breaker journal — with the reference model.
func TestBreakerMatchesReferenceModel(t *testing.T) {
	advances := []sim.Duration{0, 30 * sim.Second, 5 * sim.Minute, 10*sim.Minute - sim.Second, 10 * sim.Minute, 25 * sim.Minute}
	var seen [4]int // trips, probes, closes after a probe, reopens
	for threshold := 1; threshold <= 6; threshold++ {
		for prog := 0; prog < 60; prog++ {
			rng := sim.NewRNG(int64(1000*threshold + prog))
			eng := sim.NewEngine()
			cfg := DefaultConfig()
			cfg.BreakerThreshold = threshold
			hub := obs.New(eng)
			s := New(eng, nil, cfg, Options{Obs: hub})
			r := &resource{s: s, name: "gate"}
			m := &breakerModel{threshold: threshold}
			for step := 0; step < 80; step++ {
				var op string
				switch k := rng.Intn(10); {
				case k < 3:
					op = "dispatch"
					if s.breakerAllows(r) {
						s.noteBreakerDispatch(r)
						m.dispatch()
					}
				case k < 5:
					op = "ok"
					s.observeBreaker(r, true)
					m.outcome(true, eng.Now())
				case k < 8:
					op = "fail"
					s.observeBreaker(r, false)
					m.outcome(false, eng.Now())
				default:
					d := advances[rng.Intn(len(advances))]
					op = fmt.Sprintf("advance %v", d)
					eng.RunUntil(eng.Now() + sim.Time(d))
				}
				var got []string
				hub.Journal.Each(func(ev obs.Event) {
					if ev.Stage == obs.StageBreaker {
						got = append(got, ev.Detail)
					}
				})
				now := eng.Now()
				if s.breakerAllows(r) != m.allows(now) || r.breakerOpen != m.open || r.breakerProbe != m.probing ||
					s.Stats().BreakerTrips != m.trips || !slices.Equal(got, m.events) {
					t.Fatalf("threshold %d program %d step %d (%s) at %v: scheduler allows=%v open=%v probe=%v trips=%d journal %q; "+
						"model allows=%v open=%v probe=%v trips=%d journal %q",
						threshold, prog, step, op, now, s.breakerAllows(r), r.breakerOpen, r.breakerProbe, s.Stats().BreakerTrips, got,
						m.allows(now), m.open, m.probing, m.trips, m.events)
				}
			}
			seen[0] += m.trips
			for _, ev := range m.events {
				switch ev {
				case "half-open probe dispatched":
					seen[1]++
				case "closed after successful probe":
					seen[2]++
				case "probe failed; reopened":
					seen[3]++
				}
			}
		}
	}
	for i, n := range seen {
		if n == 0 {
			t.Errorf("the programs never reached transition %d (trip, probe, close, reopen): %v", i, seen)
		}
	}
}
