package main

// The names in this file are the benchmark's contract: BENCHMARK.json
// lists the same workloads and metrics (bench_test.go holds the two
// in step), and every later performance claim names one metric and
// one workload from here.

// metricKind says how a per-layer figure is obtained.
type metricKind string

const (
	// kindCount is exact: read from an exported counter after the
	// pass. Counts repeat across reps and are collected on every pass.
	kindCount metricKind = "count"
	// kindSpan is host wall time around exported calls the driver
	// makes, recorded on the traced pass only.
	kindSpan metricKind = "span"
	// kindProbe drives the layer alone, after the traced pass, with
	// the op count that pass recorded.
	kindProbe metricKind = "probe"
	// kindCalc is computed from the others.
	kindCalc metricKind = "calc"
)

// metricSpec describes one reported figure.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which a gated
	// end-to-end metric may worsen; 0 on an end-to-end metric that is
	// reported but not gated, and on every per-layer metric.
	Bound float64
	Kind  metricKind
}

// endToEnd are the end-to-end metrics, defined on every workload and
// printed by every untraced run. failed_frac of the issue is not
// listed: failures travel as the result's attempted/failed pair.
//
// A Bound above 0 makes the metric gated: BENCHMARK.json lists it under
// end_to_end, and a change that worsens it by more than that share is
// rejected. wall_s and cpu_s carry no bound. On the 2-vCPU sandbox the
// benchmark was built on, identical passes lasting seconds run between
// 1.0 and 1.6 times their fastest time, drifting over minutes (README,
// "Machine noise"): ten-seed spreads of 11 to 49 %, wider than the
// widest bound the driver accepts (25 %), and a bound narrower than the
// spread rejects changes at random. They are still measured on every
// pass and printed beside the gated ones; for the driver they travel
// with the traced run's metrics (BENCHMARK.json per_layer), and a claim
// on them rests on interleaved pairs. Allocations repeat to a fraction
// of a percent at one seed and to about one percent across seeds, so
// they carry the gate; setup_s has the widest bound the driver allows.
var endToEnd = []metricSpec{
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "cpu_s", Unit: "s", Better: "lower"},
	{Name: "allocs_per_op", Unit: "1/op", Better: "lower", Bound: 0.05},
	{Name: "bytes_per_op", Unit: "B/op", Better: "lower", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// gatedMetrics are the end-to-end metrics with a bound: what
// BENCHMARK.json lists under end_to_end and an untraced run's result
// line carries.
func gatedMetrics() []metricSpec {
	var out []metricSpec
	for _, ms := range endToEnd {
		if ms.Bound > 0 {
			out = append(out, ms)
		}
	}
	return out
}

// ungatedMetrics are what BENCHMARK.json lists under per_layer and a
// traced run's result line carries: the end-to-end metrics without a
// bound, then the per-layer table.
func ungatedMetrics() []metricSpec {
	var out []metricSpec
	for _, ms := range endToEnd {
		if ms.Bound == 0 {
			out = append(out, ms)
		}
	}
	return append(out, perLayer...)
}

// perLayer is the per-layer table, in print order.
var perLayer = []metricSpec{
	{Name: "sim.events", Unit: "count", Better: "lower", Kind: kindCount},
	{Name: "sim.probe_ns_per_event", Unit: "ns", Better: "lower", Kind: kindProbe},
	{Name: "sim.est_share", Unit: "ratio", Better: "lower", Kind: kindCalc},

	{Name: "obs.journal_events", Unit: "count", Better: "lower", Kind: kindCount},
	{Name: "obs.series", Unit: "count", Better: "lower", Kind: kindCount},
	{Name: "obs.probe_ns_per_record", Unit: "ns", Better: "lower", Kind: kindProbe},
	{Name: "obs.probe_ns_per_observe", Unit: "ns", Better: "lower", Kind: kindProbe},
	{Name: "obs.exposition_s", Unit: "s", Better: "lower", Kind: kindSpan},
	{Name: "obs.est_share", Unit: "ratio", Better: "lower", Kind: kindCalc},

	{Name: "wal.records", Unit: "count", Better: "lower", Kind: kindCount},
	{Name: "wal.log_bytes", Unit: "B", Better: "lower", Kind: kindCount},
	{Name: "wal.snapshot_bytes", Unit: "B", Better: "lower", Kind: kindCount},
	{Name: "wal.probe_ns_per_append", Unit: "ns", Better: "lower", Kind: kindProbe},
	{Name: "wal.probe_load_s", Unit: "s", Better: "lower", Kind: kindProbe},
	{Name: "wal.overhead_s", Unit: "s", Better: "lower", Kind: kindCalc},

	{Name: "shard.probe_ns_per_route", Unit: "ns", Better: "lower", Kind: kindProbe},
	{Name: "shard.imbalance", Unit: "ratio", Better: "lower", Kind: kindCount},

	{Name: "core.new_s", Unit: "s", Better: "lower", Kind: kindSpan},
	{Name: "core.schedule_s", Unit: "s", Better: "lower", Kind: kindSpan},
	{Name: "core.run_s", Unit: "s", Better: "lower", Kind: kindSpan},
	{Name: "core.recover_s", Unit: "s", Better: "lower", Kind: kindSpan},
	{Name: "core.recovered_inputs", Unit: "count", Better: "lower", Kind: kindCount},
	{Name: "core.digest_s", Unit: "s", Better: "lower", Kind: kindSpan},
	{Name: "core.close_s", Unit: "s", Better: "lower", Kind: kindSpan},
	{Name: "core.ops_per_s", Unit: "1/s", Better: "higher", Kind: kindCalc},
	{Name: "core.peak_rss_mb", Unit: "MB", Better: "lower", Kind: kindSpan},
	{Name: "core.gc_cycles", Unit: "count", Better: "lower", Kind: kindSpan},
	{Name: "core.unattributed_share", Unit: "ratio", Better: "lower", Kind: kindCalc},

	{Name: "gsbl.batches", Unit: "count", Better: "higher", Kind: kindCount},
	{Name: "gsbl.ingest_peak_depth", Unit: "count", Better: "lower", Kind: kindCount},
	{Name: "gsbl.virt_ingest_wait_s", Unit: "s", Better: "lower", Kind: kindCount},
	{Name: "gsbl.zip_s", Unit: "s", Better: "lower", Kind: kindSpan},
	{Name: "gsbl.zip_bytes", Unit: "B", Better: "lower", Kind: kindCount},

	{Name: "admit.shed_quota", Unit: "count", Better: "lower", Kind: kindCount},
	{Name: "admit.shed_overload", Unit: "count", Better: "lower", Kind: kindCount},
	{Name: "admit.accept_ratio", Unit: "ratio", Better: "higher", Kind: kindCount},
	{Name: "admit.probe_ns_per_decision", Unit: "ns", Better: "lower", Kind: kindProbe},

	{Name: "metasched.grid_jobs", Unit: "count", Better: "lower", Kind: kindCount},
	{Name: "metasched.completed", Unit: "count", Better: "higher", Kind: kindCount},
	{Name: "metasched.failed", Unit: "count", Better: "lower", Kind: kindCount},
	{Name: "metasched.retries", Unit: "count", Better: "lower", Kind: kindCount},
	{Name: "metasched.requeued", Unit: "count", Better: "lower", Kind: kindCount},
	{Name: "metasched.bundle_ratio", Unit: "ratio", Better: "higher", Kind: kindCount},
	{Name: "metasched.virt_place_wait_s", Unit: "s", Better: "lower", Kind: kindCount},
	{Name: "metasched.virt_makespan_h", Unit: "h", Better: "lower", Kind: kindCount},

	{Name: "estimate.predicts", Unit: "count", Better: "lower", Kind: kindSpan},
	{Name: "estimate.predict_s", Unit: "s", Better: "lower", Kind: kindSpan},
	{Name: "estimate.retrains", Unit: "count", Better: "lower", Kind: kindCount},
	{Name: "estimate.probe_bootstrap_s", Unit: "s", Better: "lower", Kind: kindProbe},
	{Name: "forest.probe_train_s", Unit: "s", Better: "lower", Kind: kindProbe},
	{Name: "forest.probe_ns_per_predict", Unit: "ns", Better: "lower", Kind: kindProbe},

	{Name: "lrm.submits", Unit: "count", Better: "lower", Kind: kindSpan},
	{Name: "lrm.submit_s", Unit: "s", Better: "lower", Kind: kindSpan},
	{Name: "lrm.info_calls", Unit: "count", Better: "lower", Kind: kindSpan},
	{Name: "boinc.results_issued", Unit: "count", Better: "lower", Kind: kindCount},
	{Name: "boinc.results_timed_out", Unit: "count", Better: "lower", Kind: kindCount},
	{Name: "boinc.wasted_cpu_s", Unit: "s", Better: "lower", Kind: kindCount},
	{Name: "faults.injected", Unit: "count", Better: "lower", Kind: kindCount},

	{Name: "phylo.evaluations", Unit: "count", Better: "lower", Kind: kindCount},
	{Name: "phylo.generations", Unit: "count", Better: "lower", Kind: kindCount},
	{Name: "phylo.best_lnl", Unit: "lnL", Better: "higher", Kind: kindCount},
	{Name: "phylo.compile_s", Unit: "s", Better: "lower", Kind: kindSpan},
	{Name: "phylo.pool_workers", Unit: "count", Better: "higher", Kind: kindCount},
	{Name: "phylo.pool_speedup", Unit: "ratio", Better: "higher", Kind: kindCalc},

	{Name: "beagle.cells", Unit: "count", Better: "lower", Kind: kindCount},
	{Name: "beagle.ns_per_cell", Unit: "ns", Better: "lower", Kind: kindCalc},
	{Name: "beagle.partials_reused_ratio", Unit: "ratio", Better: "higher", Kind: kindCount},
	{Name: "beagle.bank_hit_ratio", Unit: "ratio", Better: "higher", Kind: kindCount},
	{Name: "beagle.cache_hit_ratio", Unit: "ratio", Better: "higher", Kind: kindCount},
	{Name: "beagle.pmat_recycled", Unit: "count", Better: "higher", Kind: kindCount},

	{Name: "trace_overhead_frac", Unit: "ratio", Better: "lower", Kind: kindCalc},
}
