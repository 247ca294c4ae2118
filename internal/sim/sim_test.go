package sim

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
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
	var stop func()
	stop = e.Every(10, func() {
		ticks = append(ticks, e.Now())
		if len(ticks) == 3 {
			stop()
		}
	})
	e.RunUntil(1000)
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3", len(ticks))
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
