package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lattice/internal/core"
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

// TestProfilesOnlyOnTheMetricsListener checks that the runtime profiles
// are served by the -metrics-addr mux and not by the public portal.
func TestProfilesOnlyOnTheMetricsListener(t *testing.T) {
	cfg := core.DefaultConfig(1)
	cfg.TrainingJobs = 20
	lat, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		h    http.Handler
		want int
	}{
		{"metrics mux", metricsMux(lat), http.StatusOK},
		{"portal", lat.Portal.Handler(), http.StatusNotFound},
	} {
		rec := httptest.NewRecorder()
		tc.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/heap?debug=1", nil))
		if rec.Code != tc.want {
			t.Errorf("%s: GET /debug/pprof/heap = %d, want %d", tc.name, rec.Code, tc.want)
		}
	}
}
