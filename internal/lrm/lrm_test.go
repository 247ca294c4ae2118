package lrm

import (
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
	}
	for i, j := range cases {
		if err := j.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
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

func TestHasPlatform(t *testing.T) {
	have := []Platform{LinuxX86, DarwinX86}
	if !HasPlatform(nil, have...) {
		t.Error("empty requirement should match anything")
	}
	if !HasPlatform([]Platform{DarwinX86}, have...) {
		t.Error("matching platform rejected")
	}
	if HasPlatform([]Platform{WindowsX86}, have...) {
		t.Error("missing platform accepted")
	}
}

func TestHasSoftware(t *testing.T) {
	have := []string{"java", "python"}
	if !HasSoftware(nil, have) {
		t.Error("empty requirement should match")
	}
	if !HasSoftware([]string{"java"}, have) {
		t.Error("available software rejected")
	}
	if HasSoftware([]string{"java", "matlab"}, have) {
		t.Error("partially missing software accepted")
	}
}
