// Package shard holds the primitives of multi-coordinator scale-out:
// a deterministic router that partitions users across N coordinator
// shards, per-shard seed derivation, the shard naming every
// shard-qualified label uses (origins, ID prefixes, WAL directories),
// the numbered batch and workflow IDs, and exposition merging that gives every metric series a shard label.
// The package is pure mechanism — core.Cluster wires these primitives
// around N core.Lattice deployments, each of which owns a disjoint
// slice of the grid federation.
//
// Everything here is a pure function of its inputs: no clock, no wall
// time, no map iteration, no process identity. Two same-seed cluster
// runs therefore route and expose bit-identically, which is what lets
// the scale-out experiments pin digest equality at every shard count.
package shard

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"strconv"
	"strings"

	"lattice/internal/sim"
)

// ShareMode names how a cluster's shards share the grid federation.
type ShareMode string

// SharePartition, the only ShareMode, gives resource i of the
// federation to shard i mod N alone.
const SharePartition ShareMode = "partition"

// routeSep separates the hash fields, mirroring sim.DeriveSeed's
// framing so no (user, origin) pair can collide with another by
// concatenation.
const routeSep = '\x1f'

// Key returns the FNV-1a routing key of a (user, batch origin) pair.
// The same pair always yields the same key, on every shard count —
// rebalancing from N to M shards only changes the modulus, never the
// key, so a user's submissions stay totally ordered on whichever
// shard owns them.
func Key(user, origin string) uint64 {
	h := fnv.New64a()
	//lint:allow errdrop -- fnv.Write cannot fail
	h.Write([]byte(user))
	//lint:allow errdrop -- fnv.Write cannot fail
	h.Write([]byte{routeSep})
	//lint:allow errdrop -- fnv.Write cannot fail
	h.Write([]byte(origin))
	return h.Sum64()
}

// Route returns the shard that owns a (user, batch origin) pair in an
// n-shard deployment. n must be positive; Route panics otherwise
// (a zero-shard cluster is a construction error, not a runtime
// condition).
func Route(user, origin string, n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("shard: Route with %d shards", n))
	}
	return int(Key(user, origin) % uint64(n))
}

// Seed derives shard k's engine seed from the deployment seed. Each
// shard runs its own discrete-event engine and RNG tree; deriving the
// per-shard seed by sim.DeriveSeed keeps sibling shards' RNG streams
// decorrelated while staying a pure function of (base, k).
func Seed(base int64, k int) int64 {
	return sim.DeriveSeed(base, "shard", k)
}

// namePrefix and name give shard k's name, the one format every
// shard-qualified label below derives from.
const namePrefix = "shard"

func name(k int) string { return namePrefix + strconv.Itoa(k) }

// Origin builds the shard-qualified origin label recorded on batches
// and WAL inputs: "shard<k>/<path>". The prefix makes every journal
// event and durable record attributable to its coordinator shard.
func Origin(k int, path string) string {
	return name(k) + "/" + path
}

// IDPrefix is the prefix qualifying shard k's batch and workflow IDs,
// "shard<k>-", so any ID names its owner.
func IDPrefix(k int) string { return name(k) + "-" }

// IDShard returns the shard whose IDPrefix starts id, when that shard
// exists in an n-shard deployment. It accepts exactly the prefixes
// IDPrefix builds: no sign, no leading zero, the dash present.
func IDShard(id string, n int) (int, bool) {
	rest, ok := strings.CutPrefix(id, namePrefix)
	digits, _, dash := strings.Cut(rest, "-")
	k, err := strconv.Atoi(digits)
	if !ok || !dash || err != nil || k >= n || strconv.Itoa(k) != digits {
		return 0, false
	}
	return k, true
}

// AppendID appends the ID of the n-th record of a kind, numbered from 1
// in creation order: prefix (IDPrefix, or "" outside a cluster), kind,
// "-" and n padded to six digits — "shard0-batch-000123", "wf-000001".
func AppendID(dst []byte, prefix, kind string, n int) []byte {
	dst = append(append(append(dst, prefix...), kind...), '-')
	for p := 100_000; p > 1 && n < p; p /= 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(n), 10)
}

// IDNumber returns n when id is exactly what AppendID builds for prefix,
// kind and some n ≥ 1; any other spelling of the number — fewer digits,
// extra zeros, a sign, trailing bytes — is refused.
func IDNumber(id, prefix, kind string) (int, bool) {
	digits, ok := strings.CutPrefix(id, prefix+kind+"-")
	n, err := strconv.Atoi(digits)
	var buf [64]byte
	if !ok || err != nil || n < 1 || string(AppendID(buf[:0], prefix, kind, n)) != id {
		return 0, false
	}
	return n, true
}

// Dir is shard k's write-ahead-log directory under root,
// "<root>/shard<k>", so recovery stays local to a crashed shard.
func Dir(root string, k int) string { return filepath.Join(root, name(k)) }
