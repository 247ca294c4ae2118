package sim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(3, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(2, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3 {
		t.Errorf("Now() = %v, want 3", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events fired out of scheduling order: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.Schedule(1, func() { fired = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel(id) {
		t.Fatal("double Cancel returned true")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelAfterFire(t *testing.T) {
	e := NewEngine()
	var id EventID
	id = e.Schedule(1, func() {})
	e.Run()
	if e.Cancel(id) {
		t.Fatal("Cancel after fire returned true")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(1, func() { count++ })
	e.Schedule(10, func() { count++ })
	end := e.RunUntil(5)
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	if end != 5 {
		t.Fatalf("clock advanced to %v, want 5", end)
	}
	e.Run()
	if count != 2 {
		t.Fatalf("count after full run = %d, want 2", count)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.Schedule(1, func() {
		times = append(times, e.Now())
		e.Schedule(2, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Fatalf("times = %v, want [1 3]", times)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(1, func() { count++; e.Stop() })
	e.Schedule(2, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1 (Stop should halt the run)", count)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
}

func TestEvery(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	e.Every(10, func() { ticks = append(ticks, e.Now()) })
	e.RunUntil(35)
	if len(ticks) != 3 || e.Pending() != 1 {
		t.Fatalf("got %d ticks and %d pending, want 3 and the next tick", len(ticks), e.Pending())
	}
	for i, at := range ticks {
		if want := Time(10 * (i + 1)); at != want {
			t.Errorf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {
		e.Schedule(-10, func() {
			if e.Now() != 5 {
				t.Errorf("negative-delay event at %v, want 5", e.Now())
			}
		})
	})
	e.Run()
}

// TestNaNTimeClampedToNow: a NaN time fires now, after what is already
// scheduled for now, and leaves the clock a number. Unclamped, the NaN
// event fired after an event scheduled later and the clock ended at
// t+NaNs, so every later Schedule was NaN too.
func TestNaNTimeClampedToNow(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Schedule(5, func() {
		e.Schedule(0, func() { got = append(got, fmt.Sprint("tie@", e.Now())) })
		e.ScheduleAt(Time(math.NaN()), func() { got = append(got, fmt.Sprint("nan@", e.Now())) })
		e.Schedule(1, func() { got = append(got, fmt.Sprint("later@", e.Now())) })
	})
	e.Run()
	want := []string{"tie@t+5.000s", "nan@t+5.000s", "later@t+6.000s"}
	if !slices.Equal(got, want) {
		t.Errorf("fired %v, want %v", got, want)
	}
	if e.Now() != 6 {
		t.Errorf("Now() = %v, want 6", e.Now())
	}
}

// TestPendingCountsLiveEvents: Pending is the events waiting to fire, so
// a cancelled event leaves it at once, not when the run pops it.
func TestPendingCountsLiveEvents(t *testing.T) {
	e := NewEngine()
	a := e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Cancel(a)
	if e.Pending() != 1 {
		t.Errorf("Pending after a cancel = %d, want 1", e.Pending())
	}
	e.Cancel(a)
	if e.Pending() != 1 {
		t.Errorf("Pending after a second cancel = %d, want 1", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Errorf("Pending after the run = %d, want 0", e.Pending())
	}
}

// TestCancelZeroAndStaleIDs: ID 0 is never an event, and an event's ID
// stays dead when its slot carries a newer event.
func TestCancelZeroAndStaleIDs(t *testing.T) {
	e := NewEngine()
	if e.Cancel(0) {
		t.Error("Cancel(0) on an empty engine returned true")
	}
	old := e.Schedule(1, func() {})
	if e.Cancel(0) {
		t.Error("Cancel(0) with an event pending returned true")
	}
	e.Run()
	fired := false
	fresh := e.Schedule(1, func() { fired = true }) // reuses old's slot
	if uint32(fresh) != uint32(old) {
		t.Fatalf("fixture: fresh event took slot %d, old had %d", uint32(fresh), uint32(old))
	}
	if e.Cancel(old) {
		t.Error("a stale ID cancelled the event now in its slot")
	}
	e.Run()
	if !fired {
		t.Error("the slot's new event did not fire")
	}
}

type counter struct{ n int }

func (c *counter) Fire() { c.n++ }

// TestEngineAllocs: on a warm engine, At and After with a pointer
// handler, Cancel and firing allocate nothing, and neither does
// Schedule with a func that captures nothing.
func TestEngineAllocs(t *testing.T) {
	e := NewEngine()
	c := &counter{}
	for i := 0; i < 64; i++ { // warm: grow the queue and the slot table
		e.After(Duration(i), c)
	}
	e.Run()
	for name, fn := range map[string]func(){
		"At+fire":    func() { e.At(e.Now()+1, c); e.Run() },
		"After+fire": func() { e.After(1, c); e.Run() },
		"Cancel":     func() { e.Cancel(e.After(1, c)); e.Run() },
		"Schedule":   func() { e.Schedule(1, func() {}); e.Run() },
		"RunTo":      func() { e.After(1, c); e.RunTo(e.Steps()+1, e.Now()+2) },
		"many": func() {
			for i := 0; i < 32; i++ {
				e.After(Duration(i%5), c)
			}
			e.Run()
		},
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %.1f allocations, want 0", name, n)
		}
	}
	if c.n == 0 {
		t.Error("the handler never fired")
	}
}

// TestEngineGrowthIsGeometric: scheduling 10^5 events without firing
// any allocates at most 2.5 times the bytes of the queue, slot and free
// tables it ends with — what doubling costs (each table's earlier
// copies add up to less than its final size), where append's 1.25×
// steps for long slices cost about five times.
func TestEngineGrowthIsGeometric(t *testing.T) {
	const n = 100_000
	c := &counter{}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := NewEngine()
	for i := 0; i < n; i++ {
		e.At(Time(i%977), c)
	}
	runtime.ReadMemStats(&after)
	final := cap(e.queue)*int(unsafe.Sizeof(event{})) + cap(e.slots)*int(unsafe.Sizeof(slot{})) +
		cap(e.free)*int(unsafe.Sizeof(uint32(0)))
	allocated := after.TotalAlloc - before.TotalAlloc
	if e.Pending() != n {
		t.Fatalf("%d events pending, want %d", e.Pending(), n)
	}
	if ratio := float64(allocated) / float64(final); ratio > 2.5 {
		t.Errorf("scheduling %d events allocated %d bytes, %.2f times the final tables' %d", n, allocated, ratio, final)
	} else {
		t.Logf("%d bytes allocated for %d bytes of tables (%.2f×)", allocated, final, ratio)
	}
}

// holdModel is BenchmarkEngine's handler: each firing pushes one new
// event, and every tenth also cancels a pending one and replaces it, so
// the queue holds its size.
type holdModel struct {
	e     *Engine
	g     *RNG
	ids   []EventID
	fires int
	stop  int
}

func (h *holdModel) Fire() {
	h.fires++
	if h.fires >= h.stop {
		h.e.Stop()
	}
	k := h.g.Intn(len(h.ids))
	h.ids[k] = h.e.After(Duration(h.g.Exp(100)), h)
	if h.fires%10 == 0 {
		k = h.g.Intn(len(h.ids))
		if h.e.Cancel(h.ids[k]) {
			h.ids[k] = h.e.After(Duration(h.g.Exp(100)), h)
		}
	}
}

// BenchmarkEngine is the classic hold model: 10^5 pending events, one
// op pops the earliest and pushes one, and one op in ten also cancels a
// pending event and schedules its replacement.
func BenchmarkEngine(b *testing.B) {
	const held = 100_000
	e := NewEngine()
	h := &holdModel{e: e, g: NewRNG(1), ids: make([]EventID, held), stop: b.N}
	for i := range h.ids {
		h.ids[i] = e.After(Duration(h.g.Exp(100)), h)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	if h.fires != b.N {
		b.Fatalf("fired %d, want %d", h.fires, b.N)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed int64) []Time {
		e := NewEngine()
		g := NewRNG(seed)
		var fired []Time
		var spawn func()
		n := 0
		spawn = func() {
			fired = append(fired, e.Now())
			n++
			if n < 50 {
				e.Schedule(Duration(g.Exp(3)), spawn)
			}
		}
		e.Schedule(0, spawn)
		e.Run()
		return fired
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any batch of non-negative delays, events fire in
// non-decreasing time order and the clock ends at the max delay.
func TestEventOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		var max Duration
		for _, d := range raw {
			delay := Duration(d)
			if delay > max {
				max = delay
			}
			e.Schedule(delay, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return e.Now() == Time(max)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRNGStreamsIndependentAndStable(t *testing.T) {
	a1 := NewRNG(7).Stream("alpha")
	a2 := NewRNG(7).Stream("alpha")
	b := NewRNG(7).Stream("beta")
	if a1.Float64() != a2.Float64() {
		t.Error("same seed+name should give identical streams")
	}
	// Different names should (overwhelmingly) differ.
	same := 0
	for i := 0; i < 16; i++ {
		if a1.Float64() == b.Float64() {
			same++
		}
	}
	if same == 16 {
		t.Error("streams alpha and beta are identical")
	}
}

// TestPermIntoMatchesPerm: PermInto must return Perm's permutation and
// leave the stream where Perm leaves it, for every length including 0
// and 1, whatever the buffer held before.
func TestPermIntoMatchesPerm(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	buf := make([]int, 64)
	for round := 0; round < 200; round++ {
		n := round % (len(buf) + 1)
		want := a.Perm(n)
		got := buf[:n]
		b.PermInto(got)
		if !slices.Equal(got, want) {
			t.Fatalf("round %d, n=%d: PermInto = %v, Perm = %v", round, n, got, want)
		}
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("round %d, n=%d: streams diverged after the permutation (%v vs %v)", round, n, x, y)
		}
	}
}

// TestReseedMatchesNewRNG: a reseeded generator, whatever it drew
// before (including a cached normal variate), must replay NewRNG(seed)
// draw for draw across the distributions.
func TestReseedMatchesNewRNG(t *testing.T) {
	g := NewRNG(99)
	for _, seed := range []int64{0, 1, -7, 0x9E3779B9, 1 << 40} {
		g.Normal(0, 1)
		g.Perm(5)
		g.Reseed(seed)
		fresh := NewRNG(seed)
		for i := 0; i < 1000; i++ {
			switch i % 4 {
			case 0:
				if x, y := g.Intn(150), fresh.Intn(150); x != y {
					t.Fatalf("seed %d draw %d: Intn %d vs %d", seed, i, x, y)
				}
			case 1:
				if x, y := g.Float64(), fresh.Float64(); x != y {
					t.Fatalf("seed %d draw %d: Float64 %v vs %v", seed, i, x, y)
				}
			case 2:
				if x, y := g.Normal(0, 1), fresh.Normal(0, 1); x != y {
					t.Fatalf("seed %d draw %d: Normal %v vs %v", seed, i, x, y)
				}
			case 3:
				if x, y := g.Perm(9), fresh.Perm(9); !slices.Equal(x, y) {
					t.Fatalf("seed %d draw %d: Perm %v vs %v", seed, i, x, y)
				}
			}
		}
	}
}

func TestExpMean(t *testing.T) {
	g := NewRNG(3)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += g.Exp(10)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.5 {
		t.Errorf("exp mean = %.3f, want 10", mean)
	}
}

func TestChoiceRespectsWeights(t *testing.T) {
	g := NewRNG(4)
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[g.Choice([]float64{1, 2, 7})]++
	}
	if !(counts[2] > counts[1] && counts[1] > counts[0]) {
		t.Errorf("counts %v do not respect weights 1:2:7", counts)
	}
	frac := float64(counts[2]) / 30000
	if math.Abs(frac-0.7) > 0.03 {
		t.Errorf("weight-7 fraction = %.3f, want ~0.7", frac)
	}
}

// refChoice is Choice as it stood before ChoiceTotal was split out:
// the weights summed left to right, then the subtraction scan.
func refChoice(g *RNG, weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	x := g.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// TestChoiceTotalIsChoice draws from three generators on one seed:
// Choice, the pre-split Choice and ChoiceTotal given Σw must pick the
// same index draw for draw, on weight rows of 1 to 61 entries with
// zeros, subnormals and sums that round.
func TestChoiceTotalIsChoice(t *testing.T) {
	rows := NewRNG(9)
	a, b, c := NewRNG(21), NewRNG(21), NewRNG(21)
	for n := 0; n < 20000; n++ {
		w := make([]float64, 1+rows.Intn(61))
		for i := range w {
			switch rows.Intn(6) {
			case 0:
			case 1:
				w[i] = 5e-324 * float64(1+rows.Intn(4))
			case 2:
				w[i] = 0.1 * float64(1+rows.Intn(9))
			default:
				w[i] = rows.Float64()
			}
		}
		w[rows.Intn(len(w))] += 1e-3
		var total float64
		for _, x := range w {
			total += x
		}
		got, ref, shared := a.Choice(w), refChoice(b, w), c.ChoiceTotal(w, total)
		if got != ref || shared != ref {
			t.Fatalf("row %d: Choice %d, pre-split Choice %d, ChoiceTotal %d", n, got, ref, shared)
		}
	}
}

func TestDurationHelpers(t *testing.T) {
	if Hour.Hours() != 1 {
		t.Error("Hour.Hours() != 1")
	}
	if d := Time(100).Sub(Time(40)); d != 60 {
		t.Errorf("Sub = %v, want 60", d)
	}
	if ti := Time(10).Add(Minute); ti != 70 {
		t.Errorf("Add = %v, want 70", ti)
	}
}
