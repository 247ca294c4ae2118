package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"reflect"
	"strings"
	"testing"
)

// testDiv is the size divisor of the package tests: every workload at
// 1/100 of its measured size, all checks on.
const testDiv = 100

// inProcess runs passes in the test process instead of a child.
func inProcess(t *testing.T, seed int64) passRunner {
	dir := t.TempDir()
	return func(w *workloadDef, traced bool) (*pass, error) {
		return runPass(w, seed, testDiv, traced, dir)
	}
}

// TestTracedSuiteSmall runs every workload untraced and traced at test
// size and holds the benchmark to its own rules: every check passes,
// traced and untraced passes agree on digest and counts, every
// end-to-end metric is non-zero, layers a workload does not reach stay
// absent, and the result line names exactly the ungated metrics.
func TestTracedSuiteSmall(t *testing.T) {
	o := &options{seed: 1}
	rep, err := tracedSuite(workloads, o, inProcess(t, o.seed))
	if err != nil {
		t.Fatal(err)
	}
	for _, wr := range rep.ws {
		name := wr.w.name
		for _, c := range wr.failedChecks() {
			t.Errorf("%s: failed check: %s", name, c)
		}
		plain, traced := wr.passes[0], wr.traced
		if plain.Digest == "" || plain.Digest != traced.Digest {
			t.Errorf("%s: untraced digest %q, traced %q", name, plain.Digest, traced.Digest)
		}
		if plain.Ops < 1 || plain.Failed != 0 || traced.Failed != 0 {
			t.Errorf("%s: ops %d, failed %d untraced and %d traced", name, plain.Ops, plain.Failed, traced.Failed)
		}
		for _, ms := range endToEnd {
			if v := plain.E2E[ms.Name]; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", name, ms.Name, v)
			}
		}
		if len(traced.Spans) == 0 || len(plain.Spans) != 0 {
			t.Errorf("%s: %d spans traced, %d untraced", name, len(traced.Spans), len(plain.Spans))
		}
		for _, s := range traced.Spans {
			if s.Workload != name || s.EndNs < s.StartNs || s.Parent >= len(traced.Spans) {
				t.Errorf("%s: malformed span %+v", name, s)
			}
		}
		layer := wr.layer()
		for k := range layer {
			wal, admit := strings.HasPrefix(k, "wal."), strings.HasPrefix(k, "admit.")
			if wal && name != "shards-durable" || admit && name != "overload" {
				t.Errorf("%s: reports %s, which it does not reach", name, k)
			}
		}
		if _, ok := layer["core.unattributed_share"]; !ok && name != "search50" && name != "score-aa" {
			t.Errorf("%s: no core.unattributed_share", name)
		}
		if n, ok := traced.ProbeOps["sim.probe_ns_per_event"]; ok && float64(n) != layer["sim.events"] {
			t.Errorf("%s: sim probe drove %d events, the pass fired %v", name, n, layer["sim.events"])
		}
	}
	durable := rep.ws[1].layer()
	for _, k := range []string{"wal.records", "wal.log_bytes", "wal.probe_ns_per_append", "wal.probe_load_s", "wal.overhead_s", "core.recover_s", "core.recovered_inputs"} {
		if durable[k] == 0 {
			t.Errorf("shards-durable: %s is zero", k)
		}
	}
	if shed := rep.ws[3].layer()["admit.shed_overload"]; shed == 0 {
		t.Errorf("overload: nothing was shed")
	}

	var out strings.Builder
	rep.print(&out)
	for _, ms := range perLayer {
		if !strings.Contains(out.String(), "  "+ms.Name+" ") {
			t.Errorf("printed table lacks %s", ms.Name)
		}
	}
	one := &report{seed: rep.seed, traced: true, ws: rep.ws[:1]}
	checkResultLine(t, one, ungatedMetrics())
}

// checkResultLine parses the report's last line and checks it has
// exactly the contract's keys and exactly the given metrics.
func checkResultLine(t *testing.T, rep *report, want []metricSpec) {
	t.Helper()
	var out strings.Builder
	if err := rep.printResult(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got struct {
		Correct   *bool                  `json:"correct"`
		Attempted *int                   `json:"attempted"`
		Failed    *int                   `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil || *got.Failed != 0 {
		t.Errorf("result line %s", lines[len(lines)-1])
	}
	if len(got.Metrics) != len(want) {
		t.Errorf("result line has %d metrics, want %d", len(got.Metrics), len(want))
	}
	for _, ms := range want {
		if m, ok := got.Metrics[ms.Name]; !ok || m.Unit != ms.Unit {
			t.Errorf("result line: metric %s = %+v, want unit %s", ms.Name, m, ms.Unit)
		}
	}
}

// TestSuiteRepsAndSelfcheck runs the cheapest workload for two reps,
// checks the reps agree and the result line carries the gated
// end-to-end metrics, then feeds selfcheck two sets that agree, two
// whose timings differ, and two whose counts do.
func TestSuiteRepsAndSelfcheck(t *testing.T) {
	o := &options{seed: 2, reps: 2}
	ws := []*workloadDef{workloadByName("overload")}
	real := inProcess(t, o.seed)
	rep, err := suite(ws, o, real)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rep.ws[0].passes); n != 2 {
		t.Fatalf("%d passes, want 2", n)
	}
	if c := rep.ws[0].failedChecks(); len(c) > 0 {
		t.Fatalf("failed checks: %v", c)
	}
	checkResultLine(t, rep, gatedMetrics())

	// Replaying one measured pass makes both selfcheck sets identical.
	// selfcheck deals alternate passes to its two sets, so a runner that
	// changes something on every second call changes set B only: a slower
	// wall_s is unresolved, not a failure; more allocations or a count
	// that moved must be caught.
	measured := rep.ws[0].passes[0]
	altered := func(alter func(p *pass)) passRunner {
		calls := 0
		return func(*workloadDef, bool) (*pass, error) {
			calls++
			p := *measured
			p.E2E, p.Layer = maps.Clone(measured.E2E), maps.Clone(measured.Layer)
			if calls%2 == 0 {
				alter(&p)
			}
			return &p, nil
		}
	}
	for _, c := range []struct {
		name  string
		alter func(p *pass)
		fail  bool
		want  string
	}{
		{"identical sets", func(*pass) {}, false, "the two sets agree"},
		{"slower set B", func(p *pass) { p.E2E["wall_s"] *= 1.5 }, false, "unresolved (wall_s, overload)"},
		{"allocating set B", func(p *pass) { p.E2E["allocs_per_op"] *= 1.1 }, true, "(allocs_per_op, overload)"},
		{"drifting count", func(p *pass) { p.Layer["sim.events"]++ }, true, "(sim.events, overload)"},
	} {
		var out bytes.Buffer
		err := selfcheck(ws, o, altered(c.alter), &out)
		if (err != nil) != c.fail || !strings.Contains(out.String(), c.want) {
			t.Errorf("selfcheck, %s: err %v, want failure %v and %q in\n%s", c.name, err, c.fail, c.want, out.String())
		}
	}
}

// TestSeedChangesInputs: another seed is another input — a different
// digest — and, the sizes being fixed, the same number of operations.
func TestSeedChangesInputs(t *testing.T) {
	for _, name := range []string{"scaleout", "score-aa"} {
		w := workloadByName(name)
		a, err := runPass(w, 1, testDiv, false, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		b, err := runPass(w, 2, testDiv, false, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if a.Digest == b.Digest || a.Ops != b.Ops {
			t.Errorf("%s: seeds 1 and 2 give digests %.12s and %.12s, ops %d and %d", name, a.Digest, b.Digest, a.Ops, b.Ops)
		}
	}
}

// TestGoldenNames holds BENCHMARK.json and the benchmark's tables in
// step: same workloads with the same reasons, same metrics with the
// same units, directions and bounds, and a command and paths that
// name this directory.
func TestGoldenNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(bj.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(bj.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", bj.Command, bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bj.RunSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	compare := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the benchmark %d", len(got), kind, len(want))
		}
		for i, ms := range want {
			g := got[i]
			if g.Name != ms.Name || g.Unit != ms.Unit || g.Better != ms.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, ms)
			}
			if bounded != (g.Bound != nil) || bounded && *g.Bound != ms.Bound {
				t.Errorf("%s metric %s: bound %v, the benchmark's is %v", kind, ms.Name, g.Bound, ms.Bound)
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, gatedMetrics(), true)
	compare("per_layer", bj.PerLayer, ungatedMetrics(), false)
}

func TestNormaliseTrace(t *testing.T) {
	for _, c := range []struct {
		args  []string
		trace bool
		names string
	}{
		{[]string{"--workload", "scaleout", "--seed", "7", "--seconds", "10", "--trace", "0"}, false, "scaleout"},
		{[]string{"--workload", "scaleout", "--trace", "1", "--seed", "7"}, true, "scaleout"},
		{[]string{"-seed", "1", "-trace"}, true, ""},
		{[]string{"-trace", "-workload", "search50,score-aa"}, true, "search50,score-aa"},
		{[]string{"-trace=false"}, false, ""},
	} {
		o, err := parseFlags(c.args)
		if err != nil {
			t.Errorf("%v: %v", c.args, err)
			continue
		}
		if o.trace != c.trace || o.names != c.names {
			t.Errorf("%v: trace %v workload %q, want %v %q", c.args, o.trace, o.names, c.trace, c.names)
		}
	}
	// -write-baseline rewrites the whole file, so a partial run is refused.
	if _, err := parseFlags([]string{"-write-baseline"}); err != nil {
		t.Errorf("-write-baseline on the default run: %v", err)
	}
	for _, extra := range [][]string{{"-workload", "scaleout"}, {"-seed", "2"}, {"-reps", "1"}, {"-trace"}, {"-selfcheck"}, {"-seconds", "10"}} {
		if _, err := parseFlags(append([]string{"-write-baseline"}, extra...)); err == nil {
			t.Errorf("-write-baseline %v accepted", extra)
		}
	}
	if _, err := parseFlags([]string{"-workload", "nope"}); err != nil {
		t.Errorf("flag parsing should not resolve workloads: %v", err)
	}
	if _, err := (&options{names: "nope"}).selected(); err == nil {
		t.Errorf("unknown workload accepted")
	}
}
