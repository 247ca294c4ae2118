package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
)

// machine describes where a run was measured.
type machine struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
}

func thisMachine() machine {
	m := machine{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CPU: "unknown"}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return m
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			m.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
			break
		}
	}
	return m
}

func describeMachine() string {
	m := thisMachine()
	return fmt.Sprintf("%s GOMAXPROCS=%d nproc=%d cpu=%q", m.Go, m.GOMAXPROCS, m.NProc, m.CPU)
}

// stat summarises one timing metric over a workload's reps.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func statOf(vs []float64) stat {
	return stat{Median: median(slices.Clone(vs)), Min: slices.Min(vs), Max: slices.Max(vs), N: len(vs)}
}

// workloadReport is everything measured for one workload in one run.
type workloadReport struct {
	w      *workloadDef
	passes []*pass // untraced, in rep order
	traced *pass   // nil unless -trace
	// problems are failed checks between passes (a digest or a count
	// that did not repeat); warnings do not fail the run.
	problems []string
	warnings []string
}

func (wr *workloadReport) all() []*pass {
	if wr.traced == nil {
		return wr.passes
	}
	return append(append([]*pass(nil), wr.passes...), wr.traced)
}

// e2e is the median, min and max of an end-to-end metric over the
// untraced reps.
func (wr *workloadReport) e2e(name string) stat {
	vs := make([]float64, len(wr.passes))
	for i, p := range wr.passes {
		vs[i] = p.E2E[name]
	}
	return statOf(vs)
}

// crossCheck compares the passes with each other: one seed, one
// digest, one set of counts — traced or not.
func (wr *workloadReport) crossCheck() {
	ps := wr.all()
	first := ps[0]
	for _, p := range ps[1:] {
		if p.Digest != first.Digest {
			wr.problems = append(wr.problems, fmt.Sprintf("digest %.12s (traced %v) differs from the first pass's %.12s", p.Digest, p.Traced, first.Digest))
		}
		for _, ms := range perLayer {
			if ms.Kind == kindCount && p.Layer[ms.Name] != first.Layer[ms.Name] {
				wr.problems = append(wr.problems, fmt.Sprintf("count %s = %v (traced %v) differs from the first pass's %v", ms.Name, p.Layer[ms.Name], p.Traced, first.Layer[ms.Name]))
			}
		}
	}
}

func (wr *workloadReport) failedChecks() []string {
	var out []string
	for _, p := range wr.all() {
		out = append(out, p.Checks...)
	}
	return append(out, wr.problems...)
}

// layer is the per-layer table of the traced pass, trace overhead
// included.
func (wr *workloadReport) layer() map[string]float64 {
	m := map[string]float64{}
	for k, v := range wr.traced.Layer {
		m[k] = v
	}
	if len(wr.passes) > 0 {
		m["trace_overhead_frac"] = wr.traced.E2E["wall_s"]/wr.e2e("wall_s").Median - 1
	}
	return m
}

// report is one run of the benchmark.
type report struct {
	seed   int64
	traced bool
	ws     []*workloadReport
}

// newReport wraps each workload's untraced passes and compares them
// with each other.
func newReport(seed int64, ws []*workloadDef, passes [][]*pass) *report {
	rep := &report{seed: seed}
	for i, w := range ws {
		wr := &workloadReport{w: w, passes: passes[i]}
		wr.crossCheck()
		rep.ws = append(rep.ws, wr)
	}
	return rep
}

// untracedPasses runs reps passes of every workload (or, with seconds
// above 0, passes until a workload's timed intervals sum to that many
// seconds) and returns them per workload, in the order run. The loop
// is rep-major — rep 1 of every workload, then rep 2 — so machine
// drift hits every workload alike.
func untracedPasses(ws []*workloadDef, reps, seconds int, runner passRunner) ([][]*pass, error) {
	passes := make([][]*pass, len(ws))
	measured := make([]float64, len(ws))
	for r := 0; ; r++ {
		ran := false
		for i, w := range ws {
			if seconds > 0 && measured[i] >= float64(seconds) || seconds == 0 && r >= reps {
				continue
			}
			p, err := runner(w, false)
			if err != nil {
				return nil, err
			}
			passes[i] = append(passes[i], p)
			measured[i] += p.E2E["wall_s"]
			ran = true
		}
		if !ran {
			return passes, nil
		}
	}
}

// suite is the untraced run.
func suite(ws []*workloadDef, o *options, runner passRunner) (*report, error) {
	passes, err := untracedPasses(ws, o.reps, o.seconds, runner)
	if err != nil {
		return nil, err
	}
	return newReport(o.seed, ws, passes), nil
}

// tracedSuite runs each workload once untraced and once traced; the
// difference between the two is the tracing overhead, and their
// digests must agree.
func tracedSuite(ws []*workloadDef, o *options, runner passRunner) (*report, error) {
	rep := &report{seed: o.seed, traced: true}
	for _, w := range ws {
		plain, err := runner(w, false)
		if err != nil {
			return nil, err
		}
		traced, err := runner(w, true)
		if err != nil {
			return nil, err
		}
		wr := &workloadReport{w: w, passes: []*pass{plain}, traced: traced}
		wr.crossCheck()
		rep.ws = append(rep.ws, wr)
	}
	return rep, nil
}

func (r *report) correct() bool {
	for _, wr := range r.ws {
		if len(wr.failedChecks()) > 0 {
			return false
		}
	}
	return true
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}

// print writes every metric by name with its unit.
func (r *report) print(w *strings.Builder) {
	for _, wr := range r.ws {
		first := wr.all()[0]
		status := "all checks pass"
		if n := len(wr.failedChecks()); n > 0 {
			status = fmt.Sprintf("%d CHECKS FAILED", n)
		}
		fmt.Fprintf(w, "\n%s: %d %ss per pass, digest %.16s, %s\n", wr.w.name, first.Ops, wr.w.op, first.Digest, status)
		for _, c := range wr.failedChecks() {
			fmt.Fprintf(w, "  FAILED: %s\n", c)
		}
		for _, c := range wr.warnings {
			fmt.Fprintf(w, "  warning: %s\n", c)
		}
		if len(wr.passes) > 0 {
			for _, ms := range endToEnd {
				s := wr.e2e(ms.Name)
				gate := "not gated"
				if ms.Bound > 0 {
					gate = fmt.Sprintf("gated at %.0f%%", 100*ms.Bound)
				}
				fmt.Fprintf(w, "  %-32s %14s %-5s  [min %s max %s n=%d]  %s\n", ms.Name, formatValue(s.Median), ms.Unit, formatValue(s.Min), formatValue(s.Max), s.N, gate)
			}
			failed, ops := 0, 0
			for _, p := range wr.passes {
				failed += p.Failed
				ops += p.Ops
			}
			fmt.Fprintf(w, "  %-32s %14s %-5s  [%d of %d]\n", "failed_frac", formatValue(float64(failed)/float64(ops)), "ratio", failed, ops)
			fmt.Fprintf(w, "  %-32s %14s %-5s  (not gated)\n", "ops_per_s", formatValue(float64(first.Ops)/wr.e2e("wall_s").Median), "1/s")
			fmt.Fprintf(w, "  %-32s %14s %-5s  (not gated)\n", "peak_rss_mb", formatValue(first.Layer["core.peak_rss_mb"]), "MB")
		}
		if wr.traced == nil {
			continue
		}
		layer := wr.layer()
		for _, ms := range perLayer {
			v, ok := layer[ms.Name]
			if !ok {
				fmt.Fprintf(w, "  %-32s %14s %-5s  %s\n", ms.Name, "-", ms.Unit, ms.Kind)
				continue
			}
			note := string(ms.Kind)
			if n, ok := wr.traced.ProbeOps[ms.Name]; ok {
				note += fmt.Sprintf(", n=%d", n)
			}
			fmt.Fprintf(w, "  %-32s %14s %-5s  %s\n", ms.Name, formatValue(v), ms.Unit, note)
		}
	}
}

// metricValue is the shape of one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is one workload's entry in the result line. An untraced run
// carries the medians of the gated end-to-end metrics; a traced run
// carries the ungated ones (from its untraced pass) and every per-layer
// metric (0 where the workload does not reach the layer).
func (r *report) metrics(wr *workloadReport) map[string]metricValue {
	out := map[string]metricValue{}
	if !r.traced {
		for _, ms := range gatedMetrics() {
			out[ms.Name] = metricValue{Value: wr.e2e(ms.Name).Median, Unit: ms.Unit}
		}
		return out
	}
	layer := wr.layer()
	for _, ms := range endToEnd {
		layer[ms.Name] = wr.e2e(ms.Name).Median
	}
	for _, ms := range ungatedMetrics() {
		out[ms.Name] = metricValue{Value: layer[ms.Name], Unit: ms.Unit}
	}
	return out
}

// printResult writes the machine-readable last line: exactly the keys
// correct, attempted, failed and metrics. With one workload selected
// metrics maps metric names to values; with several it maps workload
// names to such maps.
func (r *report) printResult(w *strings.Builder) error {
	attempted, failed := 0, 0
	byWorkload := map[string]map[string]metricValue{}
	for _, wr := range r.ws {
		bad := len(wr.problems) > 0
		for _, p := range wr.all() {
			attempted += p.Ops
			if bad {
				failed += p.Ops
			} else {
				failed += p.Failed
			}
		}
		byWorkload[wr.w.name] = r.metrics(wr)
	}
	var metrics any = byWorkload
	if len(r.ws) == 1 {
		metrics = byWorkload[r.ws[0].w.name]
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.correct(),
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%s\n", line)
	return nil
}

// writeTrace writes every traced pass's spans to path.
func (r *report) writeTrace(path string) error {
	var spans []span
	for _, wr := range r.ws {
		spans = append(spans, wr.traced.Spans...)
	}
	data, err := json.MarshalIndent(map[string]any{"seed": r.seed, "machine": thisMachine(), "spans": spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// baseline is the recorded reference of bench/baseline.json: per
// workload the digest and exact counts at one seed (simulated
// statistics and virtual-time figures among them) and the first
// measured end-to-end figures with the machine they were taken on.
type baseline struct {
	Note      string                      `json:"note"`
	Seed      int64                       `json:"seed"`
	Machine   machine                     `json:"machine"`
	Workloads map[string]baselineWorkload `json:"workloads"`
}

type baselineWorkload struct {
	Digest   string             `json:"digest"`
	Ops      int                `json:"ops"`
	Counts   map[string]float64 `json:"counts"`
	EndToEnd map[string]stat    `json:"end_to_end"`
}

// readBaseline returns nil when there is no readable baseline: the
// comparison it feeds only ever warns.
func readBaseline(path string) *baseline {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	b := &baseline{}
	if json.Unmarshal(data, b) != nil {
		return nil
	}
	return b
}

// compareBaseline reports a digest that differs from the recorded one
// as digest_changed: a warning, so a later behaviour change is visible
// without being unmergeable.
func (r *report) compareBaseline(b *baseline) {
	if b == nil || b.Seed != r.seed {
		return
	}
	for _, wr := range r.ws {
		if rec, ok := b.Workloads[wr.w.name]; ok && rec.Digest != wr.all()[0].Digest {
			wr.warnings = append(wr.warnings, fmt.Sprintf("digest_changed: recorded %.16s for seed %d, got %.16s", rec.Digest, b.Seed, wr.all()[0].Digest))
		}
	}
}

func (r *report) writeBaseline(path string) error {
	b := baseline{
		Note:      "Written by `go run ./bench -seed 1 -write-baseline`; digests and counts are exact at this seed, end_to_end is the first baseline on this machine.",
		Seed:      r.seed,
		Machine:   thisMachine(),
		Workloads: map[string]baselineWorkload{},
	}
	for _, wr := range r.ws {
		first := wr.all()[0]
		bw := baselineWorkload{Digest: first.Digest, Ops: first.Ops, Counts: map[string]float64{}, EndToEnd: map[string]stat{}}
		for _, ms := range perLayer {
			if v, ok := first.Layer[ms.Name]; ok && ms.Kind == kindCount {
				bw.Counts[ms.Name] = v
			}
		}
		for _, ms := range endToEnd {
			bw.EndToEnd[ms.Name] = wr.e2e(ms.Name)
		}
		b.Workloads[wr.w.name] = bw
	}
	data, err := json.MarshalIndent(b, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// setupFloorS is the absolute slack on setup_s: below it a relative
// bound only measures page faults.
const setupFloorS = 0.050

// unresolvedAbove is the share by which two sets' medians of an
// ungated timing metric may differ before selfcheck says so.
const unresolvedAbove = 0.25

// selfcheck measures two sets of the untraced suite and fails unless
// every gated metric of the two agrees within its bound and every count
// and digest agrees exactly. One rep-major loop feeds both sets —
// alternate passes of a workload go to set A and set B — so machine
// drift lands on both alike. The ungated timing metrics are compared
// too, but a difference there is reported as unresolved, not as a
// failure: identical code differs by that much on a drifting machine.
func selfcheck(ws []*workloadDef, o *options, runner passRunner, stdout io.Writer) error {
	passes, err := untracedPasses(ws, 2*o.reps, 0, runner)
	if err != nil {
		return err
	}
	var sets [2]*report
	w := &strings.Builder{}
	for i := range sets {
		half := make([][]*pass, len(ws))
		for k, ps := range passes {
			for j := i; j < len(ps); j += 2 {
				half[k] = append(half[k], ps[j])
			}
		}
		sets[i] = newReport(o.seed, ws, half)
		fmt.Fprintf(w, "\n--- selfcheck set %c ---", 'A'+i)
		sets[i].print(w)
	}
	var bad, unresolved []string
	for i, a := range sets[0].ws {
		b := sets[1].ws[i]
		name := a.w.name
		for _, c := range append(a.failedChecks(), b.failedChecks()...) {
			bad = append(bad, fmt.Sprintf("(check, %s): %s", name, c))
		}
		for _, ms := range endToEnd {
			x, y := a.e2e(ms.Name).Median, b.e2e(ms.Name).Median
			diff := math.Abs(x - y)
			line := fmt.Sprintf("(%s, %s): %s vs %s %s", ms.Name, name, formatValue(x), formatValue(y), ms.Unit)
			switch {
			case ms.Bound == 0 && diff > unresolvedAbove*math.Min(x, y):
				unresolved = append(unresolved, line)
			case ms.Bound > 0 && diff > ms.Bound*math.Min(x, y) && !(ms.Name == "setup_s" && diff <= setupFloorS):
				bad = append(bad, fmt.Sprintf("%s differ by more than %.0f%%", line, 100*ms.Bound))
			}
		}
		pa, pb := a.passes[0], b.passes[0]
		if pa.Digest != pb.Digest {
			bad = append(bad, fmt.Sprintf("(digest, %s): %.16s vs %.16s", name, pa.Digest, pb.Digest))
		}
		for _, ms := range perLayer {
			if ms.Kind == kindCount && pa.Layer[ms.Name] != pb.Layer[ms.Name] {
				bad = append(bad, fmt.Sprintf("(%s, %s): %v vs %v", ms.Name, name, pa.Layer[ms.Name], pb.Layer[ms.Name]))
			}
		}
	}
	if len(unresolved) > 0 {
		fmt.Fprintf(w, "\nselfcheck: %d ungated timings differ by more than %.0f%% between two sets of the same code; this machine does not resolve them:\n", len(unresolved), 100*unresolvedAbove)
		for _, u := range unresolved {
			fmt.Fprintf(w, "  unresolved %s\n", u)
		}
	}
	if len(bad) == 0 {
		fmt.Fprintf(w, "\nselfcheck: the two sets agree on every gated metric, count and digest of %d workloads\n", len(ws))
		return emit(stdout, w)
	}
	fmt.Fprintf(w, "\nselfcheck FAILED on %d (metric, workload) pairs:\n", len(bad))
	for _, b := range bad {
		fmt.Fprintf(w, "  %s\n", b)
	}
	if err := emit(stdout, w); err != nil {
		return err
	}
	return errChecks
}

// emit writes what b holds to w and empties b.
func emit(w io.Writer, b *strings.Builder) error {
	_, err := io.WriteString(w, b.String())
	b.Reset()
	return err
}
