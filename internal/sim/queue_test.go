package sim

import (
	"fmt"
	"math"
	"testing"
)

// subject is the API the op driver speaks, which the engine and its
// reference both implement.
type subject interface {
	Now() Time
	Pending() int
	Steps() uint64
	Schedule(d Duration, fn func()) EventID
	ScheduleAt(at Time, fn func()) EventID
	Cancel(id EventID) bool
	Stop()
	Run() Time
	RunUntil(deadline Time) Time
	RunTo(steps uint64, at Time) bool
	Every(period Duration, fn func())
}

// step is one line of a driver trace: what happened, the event or
// series it concerns, and the engine's state right after.
type step struct {
	what    string
	label   int
	ok      bool
	now     Time
	pending int
	steps   uint64
}

// fireCap bounds the handlers one program may fire; past it every
// handler stops the run, so a program of self-renewing series ends.
const fireCap = 2000

// probe is a pointer handler, the shape At and After are for.
type probe struct {
	d     *driver
	label int
}

func (p *probe) Fire() { p.d.fired(p.label) }

// driver interprets a byte program against one engine. Top-level ops
// schedule (through At/After with a pointer handler where the engine
// has them, through the func adapters otherwise), cancel pending,
// fired, already-cancelled, stale and zero IDs, start Every series,
// run to deadlines, and run to step positions behind, at and past the
// count so far; each firing handler reads one more op of its own, so
// handlers schedule, cancel (their own event included) and Stop the run
// from inside it.
type driver struct {
	e      subject
	prog   []byte
	pc     int
	ids    []EventID // ids[label] is the ID the label was scheduled under
	series int       // Every series started so far
	fires  int
	trace  []step
}

func runProgram(e subject, prog []byte) []step {
	d := &driver{e: e, prog: prog}
	for d.pc < len(d.prog) {
		d.op(d.next())
	}
	d.note("end", -1, false)
	return d.trace
}

func (d *driver) next() byte {
	if d.pc >= len(d.prog) {
		return 0
	}
	b := d.prog[d.pc]
	d.pc++
	return b
}

func (d *driver) note(what string, label int, ok bool) {
	d.trace = append(d.trace, step{what, label, ok, d.e.Now(), d.e.Pending(), d.e.Steps()})
}

// when maps a byte onto a time near now: ties, the past, NaN and +Inf
// included.
func (d *driver) when(b byte) Time {
	now := d.e.Now()
	switch b % 8 {
	case 0:
		return now
	case 1:
		return now + 1
	case 2:
		return now + 2
	case 3:
		return now - 1
	case 4:
		return Time(math.NaN())
	case 5:
		return now + 0.5
	case 6:
		return now + 3
	default:
		if b%64 == 7 {
			return Time(math.Inf(1))
		}
		return now + 1
	}
}

// delay maps a byte onto a delay: zero, negative, NaN and -Inf
// included.
func (d *driver) delay(b byte) Duration {
	switch b % 8 {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return 2
	case 3:
		return -1
	case 4:
		return Duration(math.NaN())
	case 5:
		return 0.5
	case 6:
		return 3
	default:
		return Duration(math.Inf(-1))
	}
}

// schedule issues one scheduling call of the given kind and records
// the new label.
func (d *driver) schedule(kind, arg byte) {
	label := len(d.ids)
	fn := func() { d.fired(label) }
	var id EventID
	e, value := d.e.(*Engine)
	switch kind % 4 {
	case 0:
		if value {
			id = e.At(d.when(arg), &probe{d, label})
		} else {
			id = d.e.ScheduleAt(d.when(arg), fn)
		}
	case 1:
		if value {
			id = e.After(d.delay(arg), &probe{d, label})
		} else {
			id = d.e.Schedule(d.delay(arg), fn)
		}
	case 2:
		id = d.e.Schedule(d.delay(arg), fn)
	default:
		id = d.e.ScheduleAt(d.when(arg), fn)
	}
	d.ids = append(d.ids, id)
	d.note("schedule", label, true)
}

// cancel cancels the event picked by b: the zero ID for 0, else a
// recorded label.
func (d *driver) cancel(b byte) {
	if b == 0 || len(d.ids) == 0 {
		d.note("cancel0", -1, d.e.Cancel(0))
		return
	}
	k := int(b) % len(d.ids)
	d.note("cancel", k, d.e.Cancel(d.ids[k]))
}

func (d *driver) op(b byte) {
	arg := d.next()
	switch b % 9 {
	case 0, 1, 2, 3:
		d.schedule(b, arg)
	case 4:
		d.cancel(arg)
	case 5:
		k := d.series
		d.series++
		d.e.Every(Duration(1+arg%3), func() { d.fired(-1 - k) })
		d.note("every", k, true)
	case 6:
		d.e.RunUntil(d.e.Now() + Time(arg%8))
		d.note("rununtil", int(arg%8), true)
	case 7:
		d.e.Run()
		d.note("run", -1, true)
	default:
		d.runTo(arg)
	}
}

// runTo runs to the step position picked by b: a step count from one
// behind the count so far to four past it, at a time near now. The
// note's label is the number of labels issued before the run, so
// TestDriverCoversTheContract can tell a stop mid-instant from a later
// event scheduled at the same time.
func (d *driver) runTo(b byte) {
	n := d.e.Steps()
	target := n + uint64(b%6)
	if target > 0 {
		target--
	}
	ok := d.e.RunTo(target, d.when(d.next()))
	what := "runto"
	switch {
	case n > target:
		what = "runto-past"
	case d.e.Pending() == 0 && d.e.Steps() < target:
		what = "runto-drained"
	}
	d.note(what, len(d.ids), ok)
}

// fired records a handler (label ≥ 0) or series tick (-1-k) and runs
// the handler's own op.
func (d *driver) fired(label int) {
	d.fires++
	d.note("fire", label, true)
	if d.fires >= fireCap {
		d.e.Stop()
		return
	}
	if label < 0 {
		return // a series tick runs no op of its own
	}
	b := d.next()
	switch b % 6 {
	case 1:
		d.schedule(1, d.next())
	case 2:
		d.cancel(d.next())
	case 3:
		d.e.Stop()
		d.note("stop-run", label, true)
	case 4:
		d.note("cancel-self", label, d.e.Cancel(d.ids[label]))
	case 5:
		d.schedule(0, d.next())
	}
}

// checkAgainstReference runs prog on both engines and fails at the
// first trace line where they part.
func checkAgainstReference(t *testing.T, prog []byte) {
	t.Helper()
	want := runProgram(newRefEngine(), prog)
	got := runProgram(NewEngine(), prog)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("program %x\nstep %d: engine %+v\n        reference %+v", prog, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("program %x: engine trace has %d steps, reference %d", prog, len(got), len(want))
	}
}

// TestEngineMatchesReference: over 400 seeded programs the value heap
// fires the same handlers at the same instants as the container/heap
// queue it replaced, and agrees on every Cancel result, Now, Pending
// and Steps.
func TestEngineMatchesReference(t *testing.T) {
	fires := 0
	for seed := int64(0); seed < 400; seed++ {
		g := NewRNG(seed)
		prog := make([]byte, 64+g.Intn(2048))
		for i := range prog {
			prog[i] = byte(g.Intn(256))
		}
		checkAgainstReference(t, prog)
		for _, s := range runProgram(NewEngine(), prog) {
			if s.what == "fire" {
				fires++
			}
		}
	}
	if fires < 100_000 {
		t.Errorf("the programs fired only %d handlers", fires)
	}
}

// FuzzEngine is the same comparison over arbitrary programs.
func FuzzEngine(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		g := NewRNG(seed)
		prog := make([]byte, 256)
		for i := range prog {
			prog[i] = byte(g.Intn(256))
		}
		f.Add(prog)
	}
	f.Add([]byte{5, 0, 6, 7}) // a series ticking up to a deadline
	f.Add([]byte{0, 4, 8, 0}) // a NaN time
	f.Fuzz(checkAgainstReference)
}

// TestDriverCoversTheContract keeps the op driver honest: the seeded
// programs must exercise each case the oracle exists to compare.
func TestDriverCoversTheContract(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(0); seed < 50; seed++ {
		g := NewRNG(seed)
		prog := make([]byte, 2048)
		for i := range prog {
			prog[i] = byte(g.Intn(256))
		}
		trace := runProgram(NewEngine(), prog)
		for i, s := range trace {
			seen[fmt.Sprintf("%s/%v", s.what, s.ok)]++
			if s.what == "runto" && s.ok && stoppedMidInstant(trace[i+1:], s) {
				seen["runto-mid/true"]++
			}
		}
	}
	for _, k := range []string{
		"cancel/true", "cancel/false", "cancel0/false", "cancel-self/false",
		"stop-run/true", "every/true",
		"rununtil/true", "run/true", "fire/true",
		"runto/true", "runto/false", "runto-mid/true", "runto-drained/false", "runto-past/false",
	} {
		if seen[k] == 0 {
			t.Errorf("no %s in 50 programs (saw %v)", k, seen)
		}
	}
}

// stoppedMidInstant reports whether a successful RunTo, traced as at,
// left an event of its own instant pending: the next handler to fire
// does so at the same time and was scheduled before the run.
func stoppedMidInstant(rest []step, at step) bool {
	for _, s := range rest {
		if s.what == "fire" {
			return s.now == at.now && s.label >= 0 && s.label < at.label
		}
	}
	return false
}
