// Package sim provides a deterministic discrete-event simulation kernel.
//
// All grid components in this repository (local resource managers, the
// BOINC server and its volunteer hosts, the meta-scheduler, MDS
// propagation) advance on a shared virtual clock owned by an Engine.
// Determinism is a hard requirement: given the same seed and the same
// sequence of scheduling calls, a simulation produces identical event
// orderings on every run.
//
// An event is a Handler and a time. Handler is one method, Fire, so a
// pointer to a record that already exists — a job's per-attempt record,
// a request queued behind a door — is scheduled as it is, with no
// allocation; where one record needs two events, the second is a named
// pointer conversion of it (type stageOut attempt; (*stageOut)(a)). A
// method value would allocate a closure each time and is never used.
// Func adapts a plain func() the way http.HandlerFunc does; Schedule,
// ScheduleAt and Every take funcs through it, for one-off events whose
// closure is the only state there is.
//
// At(at, h) and After(d, h) are the one scheduling path. A time in the
// past or NaN is clamped to Now, and so is a negative or NaN delay.
//
// Ordering rule: every scheduled event gets the next value of one
// engine-wide sequence counter, and events fire in (at, seq) order —
// earliest time first, and among events at the same instant in the
// order they were scheduled. (at, seq) is a strict total order, so the
// firing sequence is a function of the scheduling calls alone, never of
// the queue's layout, map iteration or goroutine interleaving.
//
// Input rule: an external input enters between engine runs, at a
// position (Steps, Now) — after the same handlers, at the same time,
// whether it is applied on the spot or schedules an event for a later
// instant. Replay restores it there: RunTo(steps, at) fires exactly
// the events that had fired and moves the clock to the input's time,
// then the input is applied, so it lands between the two events it came
// between even in the middle of an instant, and a re-applied scheduled
// input installs the same event at the same (at, seq). An input made
// while the engine is firing a handler (Running) has no such position:
// the nearest one replay can reach is after that handler, not inside
// it. A durable deployment refuses to record one.
//
// Cancel contract: Cancel(id) reports true only for an event that is
// pending and not yet cancelled, and then that event never fires.
// Cancelling an event that already fired, cancelling twice, and
// cancelling the zero EventID (never issued) are no-ops that report
// false. An EventID names a handler slot and the slot's generation, so
// an ID outlives its event harmlessly: once the event fired or was
// cancelled and popped, the slot's generation moves on and the old ID
// matches nothing.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, measured in seconds from the start
// of the simulation. A float64 is used rather than time.Duration so a
// single run can span simulated decades (the paper's system performed
// more than 20,000 CPU-years of computation) without overflow.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration float64

// Common durations, for readable arithmetic at call sites.
const (
	Second Duration = 1
	Minute Duration = 60
	Hour   Duration = 3600
	Day    Duration = 24 * Hour
	Week   Duration = 7 * Day
	Year   Duration = 365 * Day
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and earlier time u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Hours reports d in hours.
func (d Duration) Hours() float64 { return float64(d) / float64(Hour) }

// Seconds reports d in seconds.
func (d Duration) Seconds() float64 { return float64(d) }

func (t Time) String() string {
	return fmt.Sprintf("t+%.3fs", float64(t))
}

// Clock is a read-only view of virtual time — the hook observability
// and instrumentation layers (internal/obs) read timestamps through,
// so recorded data is reproducible for a fixed seed. *Engine satisfies
// it.
type Clock interface {
	Now() Time
}

var _ Clock = (*Engine)(nil)

// Handler is what an event does: Fire runs with the engine clock set to
// the event's time.
type Handler interface{ Fire() }

// Func adapts an ordinary function to Handler. A func value is a single
// pointer, so the conversion allocates nothing; a closure still costs
// its own allocation where it is created.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// EventID identifies a scheduled event so it can be cancelled: the low
// 32 bits are its handler slot, the high 32 bits the slot's generation
// (never 0, so no event has ID 0).
type EventID uint64

// event is one queue entry, a value: the firing time, the sequence
// number that breaks ties, and the slot holding the handler.
type event struct {
	at   Time
	seq  uint64
	slot uint32
}

// before is the firing order, (at, seq).
func before(a, b event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// slot holds a queued event's handler; h is nil once the event is
// cancelled. gen counts the slot's reuses and is bumped when its event
// leaves the queue.
type slot struct {
	h   Handler
	gen uint32
}

// Engine owns the virtual clock and the pending-event queue. It is not
// safe for concurrent use: simulations are single-threaded by design so
// that runs are reproducible.
type Engine struct {
	now Time
	// queue is a binary min-heap of events in (at, seq) order.
	queue []event
	// slots[i] is the handler of the queued event naming slot i; free
	// lists the slots no queued event names.
	slots   []slot
	free    []uint32
	nextSeq uint64
	// live counts queued events that are not cancelled.
	live    int
	running bool
	stopped bool
	steps   uint64
}

// NewEngine returns an engine with the clock at time zero and an empty
// event queue.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of events waiting to fire; cancelled
// events are not counted.
func (e *Engine) Pending() int { return e.live }

// At arranges for h to fire at absolute time at. A time in the past,
// or NaN, is clamped to Now: the event fires at the current time, after
// the events already scheduled for it. It returns an ID usable with
// Cancel.
func (e *Engine) At(at Time, h Handler) EventID {
	if h == nil {
		panic("sim: At with nil handler")
	}
	if at < e.now || at != at {
		at = e.now
	}
	var i uint32
	if n := len(e.free); n > 0 {
		i = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		i = uint32(len(e.slots))
		e.slots = append(grow(e.slots), slot{gen: 1})
	}
	e.slots[i].h = h
	e.live++
	e.queue = append(grow(e.queue), event{at: at, seq: e.nextSeq, slot: i})
	e.nextSeq++
	e.up(len(e.queue) - 1)
	return EventID(uint64(e.slots[i].gen)<<32 | uint64(i))
}

// After arranges for h to fire d from now; a negative or NaN delay
// fires at the current time, after the events already scheduled for it.
func (e *Engine) After(d Duration, h Handler) EventID { return e.At(e.now.Add(d), h) }

// Schedule is After for a func.
func (e *Engine) Schedule(delay Duration, fn func()) EventID { return e.After(delay, Func(fn)) }

// ScheduleAt is At for a func.
func (e *Engine) ScheduleAt(at Time, fn func()) EventID { return e.At(at, Func(fn)) }

// Cancel prevents a scheduled event from firing. It reports whether it
// did: false for an event that already fired or was already cancelled,
// and for ID 0.
func (e *Engine) Cancel(id EventID) bool {
	i, gen := uint32(id), uint32(id>>32)
	if int(i) >= len(e.slots) {
		return false
	}
	s := &e.slots[i]
	if s.gen != gen || s.h == nil {
		return false
	}
	s.h = nil
	e.live--
	return true
}

// Stop makes the currently executing Run, RunUntil or RunTo return
// after the current handler finishes. Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// pop removes the earliest event and frees its slot — before the
// handler runs, so the handler can neither cancel its own event nor
// see its ID alive. It returns the event's time and handler, nil for a
// cancelled event.
func (e *Engine) pop() (Time, Handler) {
	ev := e.queue[0]
	n := len(e.queue) - 1
	e.queue[0] = e.queue[n]
	e.queue = e.queue[:n]
	if n > 0 {
		e.down(0)
	}
	s := &e.slots[ev.slot]
	h := s.h
	s.h = nil
	if s.gen++; s.gen == 0 {
		s.gen = 1
	}
	e.free = append(grow(e.free), ev.slot)
	return ev.at, h
}

// grow returns s with room for one more element, doubling its capacity
// when it is full, so a table's earlier copies add up to less than its
// final size; append's own steps shrink to 1.25× for long slices, whose
// copies add up to about four times it.
func grow[T any](s []T) []T {
	if len(s) < cap(s) {
		return s
	}
	t := make([]T, len(s), max(2*cap(s), 16))
	copy(t, s)
	return t
}

// up restores the heap order above position j.
func (e *Engine) up(j int) {
	q := e.queue
	ev := q[j]
	for j > 0 {
		i := (j - 1) / 2
		if !before(ev, q[i]) {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = ev
}

// down restores the heap order below position i.
func (e *Engine) down(i int) {
	q := e.queue
	n := len(q)
	ev := q[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(q[r], q[c]) {
			c = r
		}
		if !before(q[c], ev) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = ev
}

// Running reports whether the engine is inside Run, RunUntil or RunTo
// — that is, whether the caller is an event handler.
func (e *Engine) Running() bool { return e.running }

// Steps reports how many events the engine has fired since creation:
// with Now, the position of whatever happens between two runs, which
// RunTo returns a rebuilt engine to.
func (e *Engine) Steps() uint64 { return e.steps }

// Run fires events in order until the queue drains or Stop is called.
// It returns the final clock value.
func (e *Engine) Run() Time {
	return e.RunUntil(Time(math.Inf(1)))
}

// RunUntil fires events in order until the queue drains, Stop is
// called, or the next event would fire after deadline. The clock is
// advanced to deadline if the simulation had events left but none
// before the deadline; otherwise it stays at the last event fired.
func (e *Engine) RunUntil(deadline Time) Time {
	e.run(deadline, math.MaxUint64)
	return e.now
}

// RunTo fires events in order, as RunUntil(at) would, until steps
// events have fired since creation, and then moves the clock forward
// to at. It reports whether it got there: false when the engine had
// already fired more than steps, when the queue drained or the next
// event fell after at first, when Stop was called, or when at is
// before Now or after an event still pending — a position no run of
// this engine passes through.
func (e *Engine) RunTo(steps uint64, at Time) bool {
	e.run(at, steps)
	if e.stopped || e.steps != steps || !(at >= e.now) {
		return false
	}
	if len(e.queue) > 0 && e.queue[0].at < at {
		return false
	}
	e.now = at
	return true
}

// run is the one firing loop. It fires events in order until the queue
// drains, Stop is called, limit events have fired since creation, or
// the next event would fire after deadline; in that last case the clock
// moves to a finite deadline.
func (e *Engine) run(deadline Time, limit uint64) {
	if e.running {
		panic("sim: re-entrant Run")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()
	for !e.stopped {
		// Skip cancelled events sitting at the head.
		for len(e.queue) > 0 && e.slots[e.queue[0].slot].h == nil {
			e.pop()
		}
		if len(e.queue) == 0 || e.steps >= limit {
			return
		}
		if e.queue[0].at > deadline {
			if deadline > e.now && !math.IsInf(float64(deadline), 1) {
				e.now = deadline
			}
			return
		}
		at, h := e.pop()
		e.live--
		e.now = at
		e.steps++
		h.Fire()
	}
}

// Every schedules fn to run repeatedly with the given period, starting
// one period from now, for as long as the engine runs: a periodic
// process (a provider's publication, a scheduler's scan) is part of
// the deployment, so nothing stops one. The period must be positive.
func (e *Engine) Every(period Duration, fn func()) {
	if period <= 0 {
		panic("sim: Every with non-positive period")
	}
	e.After(period, &ticker{e: e, period: period, fn: fn})
}

// ticker is one Every series: it is its own event, rescheduled after
// each tick.
type ticker struct {
	e      *Engine
	period Duration
	fn     func()
}

func (t *ticker) Fire() {
	t.fn()
	t.e.After(t.period, t)
}
