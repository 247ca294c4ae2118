// Command latticelint runs the project's static-analysis suite: five
// per-package syntactic analyzers (determinism, errdrop, floatcmp,
// syncmisuse, deadassign) plus four whole-program analyzers
// (lockorder, goroleak, taintdet, deadexport) that enforce the
// reproducibility, error-handling, concurrency and API-surface
// discipline the paper reproduction depends on. It is built from the standard library alone and works
// offline.
//
// Usage:
//
//	latticelint [flags] [packages]
//
// Packages default to ./... (every package in the module). A package
// may be given as ./... or as a directory path. Exit status is 0 when
// the tree has no unsuppressed findings, 1 when unsuppressed findings
// are reported, and 2 when the tool itself fails (parse or type-check
// error, bad flags).
//
// Flags:
//
//	-json             emit all findings (suppressed included, with a
//	                  "suppressed" field) as a JSON array
//	-enable  a,b,...  run only the named analyzers
//	-disable a,b,...  run all but the named analyzers
//	-tests            also analyze in-package _test.go files
//	-list             print the analyzer suite with scopes and exit
//
// Findings are suppressed with an in-source escape hatch, placed on
// the flagged line or alone on the line directly above:
//
//	//lint:allow determinism -- reason the wall clock is safe here
//
// Suppressed findings still appear in -json output marked
// "suppressed": true, so the escape hatches stay auditable; they do
// not affect the exit status.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"lattice/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("latticelint", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	jsonOut := fs.Bool("json", false, "emit findings as JSON (suppressed included)")
	enable := fs.String("enable", "", "comma-separated analyzers to run (default: all)")
	disable := fs.String("disable", "", "comma-separated analyzers to skip")
	tests := fs.Bool("tests", false, "also analyze in-package _test.go files")
	list := fs.Bool("list", false, "list analyzers with scopes and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			kind := "package"
			if a.RunProgram != nil {
				kind = "program"
			}
			scope := "all packages"
			if len(a.Scope) > 0 {
				scope = strings.Join(a.Scope, ", ")
			}
			if a.Tests {
				scope += " (+tests)"
			}
			fmt.Fprintf(os.Stdout, "%-12s %-8s %-32s %s\n", a.Name, kind, scope, firstLine(a.Doc))
		}
		return 0
	}

	analyzers, err := selectAnalyzers(*enable, *disable)
	if err != nil {
		fmt.Fprintln(os.Stderr, "latticelint:", err)
		return 2
	}

	modRoot, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "latticelint:", err)
		return 2
	}
	loader, err := lint.NewLoader(modRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "latticelint:", err)
		return 2
	}
	loader.IncludeTests = *tests

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var pkgs []*lint.Package
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			all, err := loader.LoadAll()
			if err != nil {
				fmt.Fprintln(os.Stderr, "latticelint:", err)
				return 2
			}
			pkgs = append(pkgs, all...)
		default:
			pkg, err := loader.LoadDir(strings.TrimSuffix(pat, "/"))
			if err != nil {
				fmt.Fprintln(os.Stderr, "latticelint:", err)
				return 2
			}
			pkgs = append(pkgs, pkg)
		}
	}

	var findings []lint.Finding
	for _, pkg := range pkgs {
		findings = append(findings, lint.RunAnalyzers(pkg, analyzers)...)
	}
	// The dataflow analyzers see every selected package at once, so
	// cross-package summaries (lock orders, sink parameters) resolve.
	findings = append(findings, lint.RunWholeProgram(lint.NewProgram(pkgs), analyzers)...)
	// Report paths relative to the module root for stable output.
	for i := range findings {
		if rel, err := filepath.Rel(modRoot, findings[i].File); err == nil {
			findings[i].File = rel
		}
	}
	open := lint.Unsuppressed(findings)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "latticelint:", err)
			return 2
		}
	} else {
		for _, f := range open {
			fmt.Fprintln(os.Stdout, f)
		}
	}
	if len(open) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "latticelint: %d finding(s)\n", len(open))
		}
		return 1
	}
	return 0
}

// selectAnalyzers applies -enable / -disable to the full suite.
func selectAnalyzers(enable, disable string) ([]*lint.Analyzer, error) {
	if enable != "" && disable != "" {
		return nil, fmt.Errorf("-enable and -disable are mutually exclusive")
	}
	if enable != "" {
		var out []*lint.Analyzer
		for _, name := range strings.Split(enable, ",") {
			name = strings.TrimSpace(name)
			a := lint.ByName(name)
			if a == nil {
				return nil, fmt.Errorf("unknown analyzer %q", name)
			}
			out = append(out, a)
		}
		return out, nil
	}
	skip := map[string]bool{}
	if disable != "" {
		for _, name := range strings.Split(disable, ",") {
			name = strings.TrimSpace(name)
			if lint.ByName(name) == nil {
				return nil, fmt.Errorf("unknown analyzer %q", name)
			}
			skip[name] = true
		}
	}
	var out []*lint.Analyzer
	for _, a := range lint.All() {
		if !skip[a.Name] {
			out = append(out, a)
		}
	}
	return out, nil
}

// findModuleRoot walks up from the working directory to the enclosing
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
