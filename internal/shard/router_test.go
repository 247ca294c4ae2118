package shard

import (
	"fmt"
	"path/filepath"
	"testing"
)

// users builds a deterministic synthetic user population.
func users(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("user%05d@example.edu", i)
	}
	return out
}

// TestRouteStableForSameN is the routing-stability property: for a
// fixed shard count the router is a pure function — the same (user,
// origin) pair lands on the same shard on every call, every run,
// every process. Pinned values keep the hash construction itself from
// silently changing.
func TestRouteStableForSameN(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		for _, u := range users(500) {
			a := Route(u, "core", n)
			b := Route(u, "core", n)
			if a != b {
				t.Fatalf("Route(%q, core, %d) unstable: %d then %d", u, n, a, b)
			}
			if a < 0 || a >= n {
				t.Fatalf("Route(%q, core, %d) = %d outside [0,%d)", u, n, a, n)
			}
		}
	}
	// Regression pins: these values may only change with an explicit
	// routing-epoch decision, since rebalancing every user invalidates
	// per-shard WAL locality.
	pins := []struct {
		user, origin string
		n, want      int
	}{
		{"user00000@example.edu", "core", 8, 0},
		{"user00001@example.edu", "core", 8, 5},
		{"smoke@example.edu", "core", 4, 0},
		{"smoke@example.edu", "portal", 4, 1},
		{"crash@example.edu", "core", 2, 0},
	}
	for _, p := range pins {
		if got := Route(p.user, p.origin, p.n); got != p.want {
			t.Errorf("Route(%q, %q, %d) = %d, want pinned %d", p.user, p.origin, p.n, got, p.want)
		}
	}
}

// TestRouteDistribution checks the FNV-1a partition spreads a
// realistic user population roughly evenly — no shard may be starved
// or own a large multiple of its fair share.
func TestRouteDistribution(t *testing.T) {
	const n, population = 8, 10000
	counts := make([]int, n)
	for _, u := range users(population) {
		counts[Route(u, "core", n)]++
	}
	fair := population / n
	for k, c := range counts {
		if c < fair/2 || c > fair*2 {
			t.Errorf("shard %d owns %d of %d users; fair share is %d", k, c, population, fair)
		}
	}
}

// TestRouteOriginMatters checks the origin participates in the key:
// the routing domain is (user, origin), not user alone.
func TestRouteOriginMatters(t *testing.T) {
	same := true
	for _, u := range users(64) {
		if Key(u, "core") != Key(u, "portal") {
			same = false
			break
		}
	}
	if same {
		t.Error("Key ignores the origin field")
	}
}

// TestRebalancePreservesPerUserOrdering is the rebalancing property:
// walking the shard counts 1→2→4→8, every user maps to exactly one
// shard at each count, so the per-shard arrival sequence restricted
// to any single user preserves the global submission order — growing
// the cluster can interleave users differently but can never reorder
// one user's submissions.
func TestRebalancePreservesPerUserOrdering(t *testing.T) {
	type submission struct {
		user string
		seq  int
	}
	// A deterministic global submission sequence: users interleaved,
	// several submissions each.
	var global []submission
	pop := users(300)
	for round := 0; round < 5; round++ {
		for i, u := range pop {
			global = append(global, submission{user: u, seq: round*len(pop) + i})
		}
	}
	for _, n := range []int{1, 2, 4, 8} {
		// Deliver the global sequence to per-shard queues via the router.
		queues := make([][]submission, n)
		owner := make(map[string]int)
		for _, s := range global {
			k := Route(s.user, "core", n)
			if prev, seen := owner[s.user]; seen && prev != k {
				t.Fatalf("n=%d: user %s routed to shard %d then %d", n, s.user, prev, k)
			}
			owner[s.user] = k
			queues[k] = append(queues[k], s)
		}
		// Within each shard queue, each user's seq values must be
		// strictly increasing — the per-user order survived.
		for k, q := range queues {
			lastSeq := make(map[string]int)
			for _, s := range q {
				if prev, seen := lastSeq[s.user]; seen && s.seq <= prev {
					t.Fatalf("n=%d shard %d: user %s order broken (%d after %d)", n, k, s.user, s.seq, prev)
				}
				lastSeq[s.user] = s.seq
			}
		}
	}
}

// TestSeedDerivation checks per-shard seeds are distinct,
// non-negative, and pinned.
func TestSeedDerivation(t *testing.T) {
	seen := make(map[int64]int)
	for k := 0; k < 64; k++ {
		s := Seed(42, k)
		if s < 0 {
			t.Fatalf("Seed(42, %d) = %d is negative", k, s)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("Seed(42, %d) collides with shard %d", k, prev)
		}
		seen[s] = k
	}
	if a, b := Seed(1, 0), Seed(2, 0); a == b {
		t.Error("Seed ignores the base seed")
	}
}

// TestOrigin pins the shard-qualified origin format the WAL and
// journal record.
func TestOrigin(t *testing.T) {
	if got := Origin(3, "core"); got != "shard3/core" {
		t.Errorf("Origin(3, core) = %q", got)
	}
}

// TestIDPrefixRoundTrip pins the shard naming: IDShard accepts exactly
// the IDs IDPrefix builds for shards that exist, and Dir lays shard
// k's log under root/shard<k>.
func TestIDPrefixRoundTrip(t *testing.T) {
	const n = 12
	for k := 0; k < n; k++ {
		id := IDPrefix(k) + "batch-000001"
		if got, ok := IDShard(id, n); !ok || got != k {
			t.Errorf("IDShard(%q, %d) = %d, %v; want %d, true", id, n, got, ok, k)
		}
	}
	if got := IDPrefix(3); got != "shard3-" {
		t.Errorf("IDPrefix(3) = %q", got)
	}
	if got := Dir("state", 3); got != filepath.Join("state", "shard3") {
		t.Errorf("Dir(state, 3) = %q", got)
	}
	for _, id := range []string{
		IDPrefix(n) + "batch-000001",
		"shard-1-batch-000001",
		"shard01-batch-000001",
		"shard+1-batch-000001",
		"shard2x-batch-000001",
		"shard2x",
		"shard2",
		"shard-",
		"batch-000001",
		"",
	} {
		if k, ok := IDShard(id, n); ok {
			t.Errorf("IDShard(%q, %d) = %d, true; want refused", id, n, k)
		}
	}
}

// TestNumberedIDRoundTrip: IDNumber accepts exactly the IDs AppendID
// builds, as fmt's "%s%s-%06d" renders them, and no other spelling.
func TestNumberedIDRoundTrip(t *testing.T) {
	for _, prefix := range []string{"", "shard3-"} {
		for _, kind := range []string{"batch", "wf"} {
			for _, n := range []int{1, 9, 10, 99_999, 999_999, 1_000_000, 12_345_678} {
				id := string(AppendID(nil, prefix, kind, n))
				if want := fmt.Sprintf("%s%s-%06d", prefix, kind, n); id != want {
					t.Errorf("AppendID(%q, %q, %d) = %q, want %q", prefix, kind, n, id, want)
				}
				if got, ok := IDNumber(id, prefix, kind); !ok || got != n {
					t.Errorf("IDNumber(%q) = %d, %v; want %d, true", id, got, ok, n)
				}
			}
		}
	}
	for _, id := range []string{
		"shard3-batch-0000001", "shard3-batch-01000000", "shard3-batch-+00001", "shard3-batch--00001",
		"shard3-batch-000000", "shard3-batch-0", "shard3-batch-1", "shard3-batch-00001",
		"shard3-batch-000001 ", "shard3-batch-000001x", "shard3-batch-00000x", "shard3-batch-",
		"shard3-batch000001", "shard3-wf-000001", "shard2-batch-000001", "batch-000001", "",
	} {
		if n, ok := IDNumber(id, "shard3-", "batch"); ok {
			t.Errorf("IDNumber(%q) = %d, true; want refused", id, n)
		}
	}
}
