package lrm

import (
	"errors"
	"math"
	"testing"

	"lattice/internal/sim"
)

func TestJobValidate(t *testing.T) {
	good := &Job{ID: "j", Work: 100, MemoryMB: 64}
	if err := good.Validate(); err != nil {
		t.Errorf("valid job rejected: %v", err)
	}
	cases := []*Job{
		{ID: "", Work: 1},
		{ID: "x", Work: 0},
		{ID: "x", Work: -5},
		{ID: "x", Work: 1, MemoryMB: -1},
		{ID: "x", Work: math.NaN()},
		{ID: "x", Work: math.Inf(1)},
		{ID: "x", Work: math.Inf(-1)},
	}
	for i, j := range cases {
		if err := j.Validate(); !errors.Is(err, ErrInvalidJob) {
			t.Errorf("case %d: got %v, want an error wrapping ErrInvalidJob", i, err)
		}
	}
}

func TestRuntimeOn(t *testing.T) {
	j := &Job{ID: "j", Work: 2 * ReferenceCellsPerSecond}
	if got := j.RuntimeOn(1.0); got != 2*sim.Second {
		t.Errorf("RuntimeOn(1.0) = %v, want 2 s", got)
	}
	if got := j.RuntimeOn(2.0); got != sim.Second {
		t.Errorf("RuntimeOn(2.0) = %v, want 1 s", got)
	}
}
