package experiments

import "time"

// Clock abstracts the wall clock so experiment outputs (model build
// times in Fig2 and the forest-size ablation) are deterministic under
// test: the experiments' scientific content is seed-driven, and the
// only wall-clock reads left are these build-time measurements.
type Clock interface {
	Now() time.Time
}

// wallClock is the production clock.
type wallClock struct{}

//lint:allow determinism -- the clock seam itself; everything else reads through it
func (wallClock) Now() time.Time { return time.Now() }

// clock is the package's time source. Tests swap it with setClock.
var clock Clock = wallClock{}

// setClock replaces the experiment clock and returns a restore
// function, for deterministic build-time measurements in tests.
func setClock(c Clock) (restore func()) {
	prev := clock
	clock = c
	return func() { clock = prev }
}
