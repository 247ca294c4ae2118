// Command gridbench regenerates the paper's evaluation artifacts from
// the command line — the same experiments the benchmark suite runs,
// printed as tables.
//
// Usage:
//
//	gridbench -list
//	gridbench -run fig2,e4,e5
//	gridbench -run all -seed 42
//	gridbench -run e4 -obs        # append /metrics snapshots per config
//	gridbench -run scale -cpuprofile cpu.pb -memprofile mem.pb
//
// The two profile flags write pprof files covering the selected
// experiments (`go tool pprof -sample_index=alloc_objects -top mem.pb`
// ranks allocation sites); the heap profile samples every allocation.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"lattice/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gridbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		list    = flag.Bool("list", false, "list available experiments")
		sel     = flag.String("run", "all", "comma-separated experiment IDs or 'all'")
		seed    = flag.Int64("seed", 1, "random seed")
		withObs = flag.Bool("obs", false, "print each configuration's final /metrics snapshot after its table")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memProf = flag.String("memprofile", "", "write an every-allocation heap profile of the selected experiments to this file")
	)
	flag.Parse()
	if *list {
		for _, e := range registry {
			fmt.Printf("%-10s %s\n%-10s   %s\n", e.id, e.title, "", e.desc)
		}
		return nil
	}
	if *memProf != "" {
		runtime.MemProfileRate = 1
	}
	stopCPU := func() error { return nil }
	if *cpuProf != "" {
		var err error
		if stopCPU, err = startCPUProfile(*cpuProf); err != nil {
			return err
		}
	}
	err := runSelected(*sel, *seed, *withObs)
	if cerr := stopCPU(); err == nil {
		err = cerr
	}
	if err == nil && *memProf != "" {
		err = writeHeapProfile(*memProf)
	}
	return err
}

// runSelected runs the experiments the -run selector names, printing
// each one's table. A selector naming an ID the registry lacks is
// refused whole, before anything runs: a misspelled ID silently skipped
// would make two runs compare equal that did not run the same things.
func runSelected(sel string, seed int64, withObs bool) error {
	known := map[string]bool{}
	for _, e := range registry {
		known[e.id] = true
	}
	want := map[string]bool{}
	all := strings.EqualFold(sel, "all")
	var unknown []string
	for _, s := range strings.Split(sel, ",") {
		id := strings.ToLower(strings.TrimSpace(s))
		want[id] = true
		if !all && !known[id] {
			unknown = append(unknown, fmt.Sprintf("%q", id))
		}
	}
	if len(unknown) > 0 {
		return fmt.Errorf("no experiment named %s; try -list", strings.Join(unknown, ", "))
	}
	for _, e := range registry {
		if !all && !want[e.id] {
			continue
		}
		fmt.Printf("=== %s: %s ===\n", e.id, e.title)
		out, err := e.fn(seed)
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Println(out)
		if withObs {
			for _, ne := range experiments.ObsExpositions(out) {
				fmt.Printf("--- metrics snapshot: %s ---\n%s\n", ne.Name, ne.Exposition)
			}
		}
	}
	return nil
}

// startCPUProfile begins profiling into path; the returned function
// stops the profiler and closes the file.
func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close() //lint:allow errdrop -- best-effort cleanup; the profiler's error is the one reported
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // fold the last cycle's allocations into the profile
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close() //lint:allow errdrop -- best-effort cleanup; the write error is the one reported
		return err
	}
	return f.Close()
}
