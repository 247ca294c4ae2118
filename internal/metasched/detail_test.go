package metasched

import (
	"fmt"
	"math"
	"runtime/debug"
	"strings"
	"testing"
)

// The scheduler built its job IDs and its place and estimate details
// through fmt.Sprintf with the formats below. They stay here as the
// oracle the append functions are held to, byte for byte.

func sprintfJobID(email string, rep, seq int) string {
	sanitized := make([]byte, 0, len(email))
	for i := 0; i < len(email); i++ {
		c := email[i]
		if c == '@' || c == '.' {
			c = '_'
		}
		sanitized = append(sanitized, c)
	}
	return fmt.Sprintf("%s-r%04d-%d", sanitized, rep, seq)
}

func sprintfPlace(p Policy, attempt int) string {
	return fmt.Sprintf("policy=%s attempt=%d", p, attempt)
}

func sprintfEstimate(refSeconds float64) string { return fmt.Sprintf("%.0f ref-seconds", refSeconds) }

func TestJobIDMatchesSprintf(t *testing.T) {
	emails := []string{
		"u@x",
		"researcher@example.edu",
		"a.b@c.d@e.f.g",
		"...@@@",
		"jürgen.müller@uni-köln.de",
		"\xff.\xfe@invalid-utf8",
		strings.Repeat("long.address", 10) + "@example.edu", // past the 96-byte buffer
	}
	s := &Scheduler{}
	for _, email := range emails {
		for _, rep := range []int{0, 9, 10, 999, 1_999, 9_999, 10_000, 123_456} {
			for _, seq := range []int{1, 42, math.MaxInt32, math.MaxInt} {
				if got, want := s.jobID(email, rep, seq), sprintfJobID(email, rep, seq); got != want {
					t.Errorf("jobID(%q, %d, %d) = %q, want %q", email, rep, seq, got, want)
				}
			}
		}
	}
}

func TestPlaceDetailMatchesSprintf(t *testing.T) {
	for _, p := range []Policy{PolicyNaive, PolicySpeedAware, PolicyFull, Policy(7)} {
		s := &Scheduler{cfg: Config{Policy: p}}
		// Out of order, so the memo grows past attempts it has not seen.
		for _, attempt := range []int{3, 1, 2, 12, 4, 5, 6, 7, 8, 9, 10, 11, 1} {
			if got, want := s.placeDetail(attempt), sprintfPlace(p, attempt); got != want {
				t.Errorf("placeDetail(%v, %d) = %q, want %q", p, attempt, got, want)
			}
		}
	}
}

func TestEstimateDetailMatchesSprintf(t *testing.T) {
	s := &Scheduler{}
	for _, v := range []float64{0, 0.4, 0.5, 1.5, 2.5, 30, 330.49, 330.5, 1234.567, 86400.5, 1e9, 1e21,
		math.Inf(1), math.NaN()} {
		if got, want := s.estimateDetail(v), sprintfEstimate(v); got != want {
			t.Errorf("estimateDetail(%v) = %q, want %q", v, got, want)
		}
	}
}

// TestIDsAndDetailsAllocateOnce: job IDs and estimate details are cut
// from the scheduler's slab, so 10 000 of each cost at most one
// allocation per chunk they fill, and a warm place detail costs
// nothing. The collector is off for the count: a cycle allocates a few
// objects of its own.
func TestIDsAndDetailsAllocateOnce(t *testing.T) {
	const chunk = 4096 // internal/slab's chunk size
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := &Scheduler{cfg: Config{Policy: PolicyFull}}
	var total, longest int
	cut := func(x string) {
		total += len(x)
		longest = max(longest, len(x))
	}
	const n = 10_000
	allocs := testing.AllocsPerRun(1, func() {
		total = 0
		for i := 0; i < n; i++ {
			cut(s.jobID("researcher@example.edu", 1_999, 123_456+i))
			cut(s.estimateDetail(1234.567 + float64(i)))
		}
	})
	// A chunk that is full wastes less than the longest string; one more
	// for the chunk the warm-up run left partly filled.
	if chunks := float64(total/(chunk-longest) + 1); allocs > chunks {
		t.Errorf("%d IDs and details, %d bytes: %.0f allocations, want at most %.0f", 2*n, total, allocs, chunks)
	}
	s.placeDetail(3) // warm
	if n := testing.AllocsPerRun(100, func() { _ = s.placeDetail(3) }); n != 0 {
		t.Errorf("placeDetail: %.0f allocations, want 0", n)
	}
}
