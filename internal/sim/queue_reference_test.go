package sim

import (
	"container/heap"
	"math"
)

// refEngine is the engine as it was before events became values: a
// container/heap of *event pointers and a map from EventID to event
// for Cancel. It is the oracle the value heap is checked against.
// Exactly two lines differ from the original, the two bugs the value
// heap fixed: ScheduleAt clamps a NaN time to now (it used to poison
// the clock), and Pending counts live events (it used to count
// cancelled ones too).
type refEngine struct {
	now     Time
	queue   refQueue
	nextSeq uint64
	nextID  EventID
	events  map[EventID]*refEvent
	running bool
	stopped bool
	steps   uint64
}

type refEvent struct {
	at        Time
	seq       uint64
	id        EventID
	fn        func()
	cancelled bool
	index     int
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }

func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *refQueue) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

func newRefEngine() *refEngine {
	return &refEngine{events: make(map[EventID]*refEvent)}
}

func (e *refEngine) Now() Time { return e.now }

// Pending is fixed: the original returned len(e.queue).
func (e *refEngine) Pending() int { return len(e.events) }

func (e *refEngine) Schedule(delay Duration, fn func()) EventID {
	if delay < 0 || math.IsNaN(float64(delay)) {
		delay = 0
	}
	return e.ScheduleAt(e.now.Add(delay), fn)
}

func (e *refEngine) ScheduleAt(at Time, fn func()) EventID {
	if fn == nil {
		panic("sim: ScheduleAt with nil handler")
	}
	if at < e.now || math.IsNaN(float64(at)) { // fixed: the original let NaN through
		at = e.now
	}
	e.nextID++
	ev := &refEvent{at: at, seq: e.nextSeq, id: e.nextID, fn: fn}
	e.nextSeq++
	heap.Push(&e.queue, ev)
	e.events[ev.id] = ev
	return ev.id
}

func (e *refEngine) Cancel(id EventID) bool {
	ev, ok := e.events[id]
	if !ok || ev.cancelled {
		return false
	}
	ev.cancelled = true
	delete(e.events, id)
	return true
}

func (e *refEngine) Stop() { e.stopped = true }

func (e *refEngine) step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*refEvent)
		if ev.cancelled {
			continue
		}
		delete(e.events, ev.id)
		e.now = ev.at
		e.steps++
		ev.fn()
		return true
	}
	return false
}

func (e *refEngine) Steps() uint64 { return e.steps }

func (e *refEngine) Run() Time {
	return e.RunUntil(Time(math.Inf(1)))
}

func (e *refEngine) RunUntil(deadline Time) Time {
	if e.running {
		panic("sim: re-entrant Run")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()
	for !e.stopped {
		for len(e.queue) > 0 && e.queue[0].cancelled {
			heap.Pop(&e.queue)
		}
		if len(e.queue) == 0 {
			return e.now
		}
		if e.queue[0].at > deadline {
			if deadline > e.now && !math.IsInf(float64(deadline), 1) {
				e.now = deadline
			}
			return e.now
		}
		e.step()
	}
	return e.now
}

// RunTo is new with the value heap; the reference spells its contract
// out step by step instead of sharing RunUntil's loop.
func (e *refEngine) RunTo(steps uint64, at Time) bool {
	if e.running {
		panic("sim: re-entrant Run")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()
	for !e.stopped && e.steps < steps {
		for len(e.queue) > 0 && e.queue[0].cancelled {
			heap.Pop(&e.queue)
		}
		if len(e.queue) == 0 {
			return false
		}
		if e.queue[0].at > at {
			if at > e.now && !math.IsInf(float64(at), 1) {
				e.now = at
			}
			return false
		}
		e.step()
	}
	if e.stopped || e.steps != steps || math.IsNaN(float64(at)) || at < e.now {
		return false
	}
	for len(e.queue) > 0 && e.queue[0].cancelled {
		heap.Pop(&e.queue)
	}
	if len(e.queue) > 0 && e.queue[0].at < at {
		return false
	}
	e.now = at
	return true
}

func (e *refEngine) Every(period Duration, fn func()) {
	if period <= 0 {
		panic("sim: Every with non-positive period")
	}
	var tick func()
	tick = func() {
		fn()
		e.Schedule(period, tick)
	}
	e.Schedule(period, tick)
}
