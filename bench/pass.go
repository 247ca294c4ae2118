package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// pass is what one child process reports: one workload, one timed
// pass. The parent aggregates passes into medians.
type pass struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	// Ops is the number of operations the timed pass attempted (see
	// workload.op); Failed is how many of them count as failed — all
	// of them when any check fails.
	Ops    int      `json:"ops"`
	Failed int      `json:"failed"`
	Checks []string `json:"checks,omitempty"` // failed checks, human-readable
	// Digest identifies the pass's output; equal seeds give equal
	// digests on every rep, traced or not.
	Digest string `json:"digest"`
	// E2E holds the end-to-end metrics, Layer the per-layer ones this
	// pass could measure (counts always; spans, probes and calcs on a
	// traced pass).
	E2E   map[string]float64 `json:"e2e"`
	Layer map[string]float64 `json:"layer"`
	// ProbeOps is how many operations each probe drove, keyed by the
	// probe's metric.
	ProbeOps map[string]int `json:"probe_ops,omitempty"`
	Spans    []span         `json:"spans,omitempty"`
}

func (p *pass) failf(format string, args ...any) {
	p.Checks = append(p.Checks, fmt.Sprintf(format, args...))
}

// result is what a fixture's collect hands back after its timed
// interval.
type result struct {
	ops    int
	digest string
	// shardDigests are the per-shard journal digests of a cluster
	// workload.
	shardDigests []string
	// checks lists failed checks.
	checks []string
	layer  map[string]float64
}

func (r *result) failf(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// fixture is a workload instance built by setup. run is the timed
// interval; collect runs the checks and reads the exported counters
// after it, untimed; probes (optional) drives the workload's layers
// alone after a traced pass; close releases files the fixture holds
// open and is called whether or not run was.
type fixture struct {
	run     func() error
	collect func() (*result, error)
	probes  func(e *env, p *pass) error
	close   func()
}

// measure runs the fixture's timed interval and its collection.
func (fx *fixture) measure() (*result, error) {
	if err := fx.run(); err != nil {
		return nil, err
	}
	return fx.collect()
}

// env is what a workload's setup sees.
type env struct {
	seed int64
	// div divides the workload's fixed size: 1 for a measured pass, 20
	// for the warm-up, 100 in the package tests.
	div int
	tr  *tracer
	// dir is a fresh scratch directory for this fixture.
	dir string
}

// size scales a workload dimension by the env's divisor, never below
// floor.
func (e *env) size(full, floor int) int {
	return max(full/e.div, floor)
}

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name string
	// why is the one-line reason recorded in BENCHMARK.json.
	why string
	// op names the unit allocs_per_op and bytes_per_op divide by.
	op    string
	setup func(e *env) (*fixture, error)
	// warm replaces the default 1/20-size warm-up when set; what it
	// returns is handed to check.
	warm func(e *env) (*result, error)
	// check (optional) compares the measured pass with the warm-up's
	// result, after the timed interval.
	check func(p *pass, res, warm *result)
}

// usage is a point reading of the process's resource counters.
type usage struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gc      uint32
}

func readUsage() (usage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}, fmt.Errorf("getrusage: %w", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gc:      ms.NumGC,
	}, nil
}

// peakRSSMB reads the process's high-water resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setupReps is how many times a pass builds its fixture. The driver's
// contract asks for several set-ups in a run; setup_s is the fastest
// of them, because a set-up lasts 5 to 80 ms and on a machine whose
// speed drifts only the fastest of many short samples repeats (README,
// "Machine noise"). All but the first are built after the measured
// fixture has been released, so they leave nothing on the heap the
// timed interval or the peak RSS would see.
const setupReps = 12

// runPass builds w's fixture, warms up, runs the timed interval and
// the checks, and — on a traced pass — the layer probes. scratch is a
// directory the pass may create subdirectories in; it removes them.
func runPass(w *workloadDef, seed int64, div int, traced bool, scratch string) (*pass, error) {
	root, err := os.MkdirTemp(scratch, "pass-")
	if err != nil {
		return nil, err
	}
	//lint:allow errdrop -- scratch cleanup; the pass has already been measured
	defer os.RemoveAll(root)
	nextDir := 0
	newEnv := func(div int, tr *tracer) *env {
		nextDir++
		return &env{seed: seed, div: div, tr: tr, dir: filepath.Join(root, fmt.Sprintf("f%d", nextDir))}
	}
	p, err := measuredPass(w, newEnv, div, traced)
	if err != nil {
		return nil, err
	}
	for i := 1; i < setupReps; i++ {
		t0 := time.Now()
		fx, err := w.setup(newEnv(div, nil))
		if err != nil {
			return nil, fmt.Errorf("%s: setup %d: %w", w.name, i+1, err)
		}
		p.E2E["setup_s"] = min(p.E2E["setup_s"], time.Since(t0).Seconds())
		fx.close()
	}
	return p, nil
}

// measuredPass is one fixture's life: built (timed as setup_s), warmed
// up, run, checked, probed and closed.
func measuredPass(w *workloadDef, newEnv func(div int, tr *tracer) *env, div int, traced bool) (*pass, error) {
	e := newEnv(div, newTracer(w.name, traced))
	p := &pass{Workload: w.name, Seed: e.seed, Traced: traced, E2E: map[string]float64{}, Layer: map[string]float64{}}
	t0 := time.Now()
	fx, err := w.setup(e)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	p.E2E["setup_s"] = time.Since(t0).Seconds()
	defer fx.close()

	var warm *result
	if w.warm != nil {
		warm, err = w.warm(newEnv(div, e.tr))
	} else {
		var wfx *fixture
		wfx, err = w.setup(newEnv(div*20, nil))
		if err == nil {
			warm, err = wfx.measure()
			wfx.close()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}

	runtime.GC()
	u0, err := readUsage()
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	if err := fx.run(); err != nil {
		return nil, fmt.Errorf("%s: timed pass: %w", w.name, err)
	}
	wall := time.Since(t0).Seconds()
	u1, err := readUsage()
	if err != nil {
		return nil, err
	}
	res, err := fx.collect()
	if err != nil {
		return nil, fmt.Errorf("%s: collecting: %w", w.name, err)
	}
	if res.ops < 1 {
		return nil, fmt.Errorf("%s: timed pass attempted no operations", w.name)
	}
	p.E2E["wall_s"] = wall
	p.E2E["cpu_s"] = (u1.cpu - u0.cpu).Seconds()
	p.E2E["allocs_per_op"] = float64(u1.mallocs-u0.mallocs) / float64(res.ops)
	p.E2E["bytes_per_op"] = float64(u1.bytes-u0.bytes) / float64(res.ops)

	p.Ops = res.ops
	p.Digest = res.digest
	p.Checks = res.checks
	for k, v := range res.layer {
		p.Layer[k] = v
	}
	p.Layer["core.ops_per_s"] = float64(res.ops) / wall
	p.Layer["core.gc_cycles"] = float64(u1.gc - u0.gc)
	p.Layer["core.peak_rss_mb"] = peakRSSMB()
	if cells := p.Layer["beagle.cells"]; cells > 0 {
		p.Layer["beagle.ns_per_cell"] = wall * 1e9 / cells
	}
	if traced {
		e.tr.fold(p.Layer)
		p.Spans = e.tr.spans
	}
	if w.check != nil {
		w.check(p, res, warm)
	}
	if traced && fx.probes != nil {
		if err := fx.probes(newEnv(div, nil), p); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", w.name, err)
		}
	}
	if len(p.Checks) > 0 {
		p.Failed = p.Ops
	}
	return p, nil
}

// median returns the middle of vs (mean of the middle two when even);
// vs is sorted in place.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}
