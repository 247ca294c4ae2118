package main

import "testing"

// TestExitStatus pins the contract make lint reads: 0 when nothing is
// open, 1 on unsuppressed findings, 2 when the tool itself fails — an
// unknown flag (-tests is no longer one) or a package that does not
// parse. Directories resolve against the module root.
func TestExitStatus(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"clean", []string{"cmd/latticelint/testdata/clean"}, 0},
		{"findings", []string{"internal/lint/testdata/src/errdrop"}, 1},
		{"findings as json", []string{"-json", "internal/lint/testdata/src/errdrop"}, 1},
		{"unknown flag", []string{"-tests", "./..."}, 2},
		{"parse error", []string{"internal/lint/testdata/src/broken"}, 2},
	}
	for _, tc := range cases {
		if got := run(tc.args); got != tc.want {
			t.Errorf("%s: latticelint %v exited %d, want %d", tc.name, tc.args, got, tc.want)
		}
	}
}
