package shard

import (
	"sort"
	"strconv"
	"strings"

	"lattice/internal/obs"
)

// MergeSnapshots merges per-shard registry snapshots into one
// deterministic series list in which every counter, gauge and
// histogram carries a shard label. Collision-freedom is by
// construction: two shards exposing the same series differ in the
// injected label, so the merged exposition never folds or shadows a
// sample. Ordering follows the registry convention — families sorted
// by name, series within a family by canonical label key — so for a
// fixed seed two merges are byte-identical.
func MergeSnapshots(perShard [][]obs.SeriesSnapshot) []obs.SeriesSnapshot {
	var out []obs.SeriesSnapshot
	for k, snaps := range perShard {
		lbl := obs.Label{Key: "shard", Value: strconv.Itoa(k)}
		for _, s := range snaps {
			s.Labels = insertLabel(s.Labels, lbl)
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return labelKey(out[i].Labels) < labelKey(out[j].Labels)
	})
	return out
}

// insertLabel returns a fresh label slice with l added in key-sorted
// position (registry snapshots keep labels sorted by key; the merge
// preserves that invariant).
func insertLabel(labels []obs.Label, l obs.Label) []obs.Label {
	out := make([]obs.Label, 0, len(labels)+1)
	placed := false
	for _, have := range labels {
		if !placed && l.Key < have.Key {
			out = append(out, l)
			placed = true
		}
		out = append(out, have)
	}
	if !placed {
		out = append(out, l)
	}
	return out
}

// labelKey renders labels as a canonical sort key.
func labelKey(labels []obs.Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(';')
	}
	return b.String()
}
