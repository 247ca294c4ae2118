// Command bench is the repository's benchmark: six named workloads
// over the coordinator, the durability layer and the likelihood
// engine, five end-to-end metrics (three of them gated) and a
// per-layer table, all measured from outside through exported
// functions and counters. See README.md in this directory and
// BENCHMARK.json at the repository root.
//
//	go run ./bench -seed 1              every workload, 3 reps, end-to-end metrics
//	go run ./bench -seed 1 -trace       one untraced and one traced pass each, per-layer table
//	go run ./bench -seed 1 -selfcheck   two interleaved sets of runs must agree within the bounds
//	go run ./bench --workload scaleout --seed 7 --seconds 10 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// workloads are the benchmark's six workloads, in run order. Sizes
// are fixed; -seed changes the generated inputs, never the size.
var workloads = []*workloadDef{
	{
		name: "scaleout", op: "submission",
		why: "1e5 one-replicate users in 6 virtual hours, 1 shard, 16 PBS clusters, obs on, all else off: " +
			"per-event and per-submission coordinator overhead (sim, gsbl ingest, metasched, pbs, journal) alone.",
		setup: func(e *env) (*fixture, error) { return clusterFixture(e, scaleoutSpec) },
	},
	{
		name: "shards-durable", op: "submission",
		why: "4e4 such users, 4 shards, per-shard WALs, each shard killed once and recovered: " +
			"the only workload where wal works (append, snapshot, load, replay) and the only one with more than one shard.",
		setup: func(e *env) (*fixture, error) { return clusterFixture(e, shardsDurableSpec) },
		warm:  shardsDurableTwin,
		check: shardsDurableCheck,
	},
	{
		name: "batch2000", op: "replicate",
		why: "40 generated 2000-replicate submissions on the Condor/PBS/SGE/BOINC federation, estimator, bundling, " +
			"retraining and faults on, then every results zip: the paper's headline use; the door is idle.",
		setup: batchFixture,
	},
	{
		name: "overload", op: "submission",
		why: "1e5 submissions from 400 users in 24 virtual hours, 1.45x the door rate, through admission control: " +
			"quota, fair-queue and shed decisions on every arrival, sheds journaled as terminals.",
		setup: func(e *env) (*fixture, error) { return clusterFixture(e, overloadSpec) },
	},
	{
		name: "search50", op: "evaluation",
		why: "One GA search, 50 taxa x 1000 sites, GTR+G4, incremental beagle engine, 25 generations, one thread: " +
			"time to solution of the program every grid job is; no coordinator layer runs.",
		setup: searchFixture,
	},
	{
		name: "score-aa", op: "tree score",
		why: "20 generations scoring 16 perturbed 50-taxon trees, 375 amino-acid patterns, +G4, pooled workers, " +
			"incremental off: 20-state kernels and full traversals, the engine path search50 does not take.",
		setup: scoreFixture,
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// defaultReps is how many timed passes a workload gets; baselineSeed is
// the seed whose digests and counts baseline.json records.
const (
	defaultReps  = 3
	baselineSeed = 1
)

// options are the command's flags.
type options struct {
	seed      int64
	names     string
	reps      int
	seconds   int
	trace     bool
	selfcheck bool
	out       string
	baseline  string
	writeBase bool
	child     bool
}

// normaliseTrace lets -trace be both the issue's bare boolean and the
// driver's "--trace 0|1": Go's flag package cannot take a boolean's
// value from the next argument, so that form is rewritten first.
func normaliseTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.Int64Var(&o.seed, "seed", 1, "seed of the input generators (users, submission draw, alignments)")
	fs.StringVar(&o.names, "workload", "", "comma-separated workloads to run (default: all six)")
	fs.IntVar(&o.reps, "reps", defaultReps, "timed passes per workload, one process each")
	fs.IntVar(&o.seconds, "seconds", 0, "when > 0, replace -reps: keep launching passes of a workload until its timed passes sum to this many seconds")
	fs.BoolVar(&o.trace, "trace", false, "traced run: one untraced and one traced pass per workload, layer probes, per-layer table, out/trace.json")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run the untraced suite twice and fail unless the two sets agree within the bounds")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for trace.json and scratch files")
	fs.StringVar(&o.baseline, "baseline", filepath.Join("bench", "baseline.json"), "recorded digests and first baseline; a digest that differs from it is reported as digest_changed")
	fs.BoolVar(&o.writeBase, "write-baseline", false, "rewrite the -baseline file from this run")
	fs.BoolVar(&o.child, "child", false, "internal: run one pass of one workload and print it as JSON")
	if err := fs.Parse(normaliseTrace(args)); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.reps < 1 || o.seconds < 0 {
		return nil, errors.New("-reps must be at least 1, -seconds at least 0")
	}
	if o.writeBase && (o.names != "" || o.seed != baselineSeed || o.reps < defaultReps || o.seconds > 0 || o.trace || o.selfcheck) {
		return nil, fmt.Errorf("-write-baseline rewrites the whole file: it needs every workload, -seed %d, at least %d reps, and none of -seconds, -trace, -selfcheck", baselineSeed, defaultReps)
	}
	return o, nil
}

// selected resolves -workload.
func (o *options) selected() ([]*workloadDef, error) {
	if o.names == "" {
		return workloads, nil
	}
	var ws []*workloadDef
	for _, name := range strings.Split(o.names, ",") {
		w := workloadByName(name)
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// passRunner runs one pass of a workload; the command runs it in a
// child process, the package tests in-process.
type passRunner func(w *workloadDef, traced bool) (*pass, error)

// childRunner re-executes this binary for one pass, so heap, GC state
// and getrusage figures are per pass. Only one child runs at a time,
// and cancelling ctx kills it.
func childRunner(ctx context.Context, o *options) (passRunner, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return func(w *workloadDef, traced bool) (*pass, error) {
		cmd := exec.CommandContext(ctx, exe, "-child", "-workload", w.name,
			"-seed", strconv.FormatInt(o.seed, 10),
			"-trace="+strconv.FormatBool(traced), "-out", o.out)
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s: child pass: %w", w.name, err)
		}
		p := &pass{}
		if err := json.Unmarshal(stdout.Bytes(), p); err != nil {
			return nil, fmt.Errorf("%s: child output: %w", w.name, err)
		}
		return p, nil
	}, nil
}

// childMain is the re-executed side: one pass, printed as JSON.
func childMain(o *options, stdout io.Writer) error {
	w := workloadByName(o.names)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.names)
	}
	p, err := runPass(w, o.seed, 1, o.trace, o.out)
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(p)
}

// errChecks is returned when the run completed but a check failed.
var errChecks = errors.New("bench: a check failed")

func run(args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	if o.child {
		return childMain(o, stdout)
	}
	ws, err := o.selected()
	if err != nil {
		return err
	}
	// An interrupted run takes its child down with it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runner, err := childRunner(ctx, o)
	if err != nil {
		return err
	}
	base := readBaseline(o.baseline)
	text := &strings.Builder{}
	fmt.Fprintf(text, "lattice bench: seed %d, %s\n", o.seed, describeMachine())
	if err := emit(stdout, text); err != nil {
		return err
	}

	if o.selfcheck {
		return selfcheck(ws, o, runner, stdout)
	}
	var rep *report
	if o.trace {
		rep, err = tracedSuite(ws, o, runner)
	} else {
		rep, err = suite(ws, o, runner)
	}
	if err != nil {
		return err
	}
	rep.compareBaseline(base)
	rep.print(text)
	if o.trace {
		if err := rep.writeTrace(filepath.Join(o.out, "trace.json")); err != nil {
			return err
		}
	}
	if o.writeBase {
		if err := rep.writeBaseline(o.baseline); err != nil {
			return err
		}
	}
	if err := rep.printResult(text); err != nil {
		return err
	}
	if err := emit(stdout, text); err != nil {
		return err
	}
	if !rep.correct() {
		return errChecks
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errChecks) && !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		os.Exit(1)
	}
}
