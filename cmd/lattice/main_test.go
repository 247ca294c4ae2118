package main

import (
	"strings"
	"testing"
)

// TestRunRefusesBadFlags checks that run refuses arguments before it
// builds a deployment or listens: a shard count below one names the
// flag, and there is no sharing-mode flag to set.
func TestRunRefusesBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-shards", "0"}, "-shards 0"},
		{[]string{"-shards", "-2"}, "-shards -2"},
		{[]string{"-shards", "2", "-share", "lease"}, "flag provided but not defined: -share"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}
