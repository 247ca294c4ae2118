package experiments

import (
	"testing"
	"time"
)

// fakeClock advances a fixed step per Now call, making elapsed-time
// measurements exactly predictable.
type fakeClock struct {
	now  time.Time
	step time.Duration
}

func (c *fakeClock) Now() time.Time {
	t := c.now
	c.now = c.now.Add(c.step)
	return t
}

// TestFig2InjectableClock pins the clock seam: with a fake clock
// installed, Fig2's reported build time is exactly the injected step
// (Fig2 reads the clock once before and once after training), not a
// wall-clock measurement.
func TestFig2InjectableClock(t *testing.T) {
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	const step = 250 * time.Millisecond
	restore := setClock(&fakeClock{now: base, step: step})
	defer restore()

	r, err := Fig2(1, 30, 50)
	if err != nil {
		t.Fatal(err)
	}
	if r.BuildTime != step {
		t.Errorf("BuildTime = %v, want exactly %v from the injected clock", r.BuildTime, step)
	}
}

// TestSetClockRestore checks the restore closure reinstalls the
// previous clock.
func TestSetClockRestore(t *testing.T) {
	fake := &fakeClock{now: time.Unix(0, 0), step: time.Second}
	restore := setClock(fake)
	if clock != Clock(fake) {
		t.Fatal("setClock did not install the fake clock")
	}
	restore()
	if _, ok := clock.(wallClock); !ok {
		t.Fatalf("restore left %T installed, want wallClock", clock)
	}
}
