// Command latticelint runs the project's static-analysis suite: four
// per-package syntactic analyzers (determinism, errdrop, floatcmp,
// deadassign) plus four whole-program analyzers (lockorder, goroleak,
// taintdet, deadexport) that enforce the reproducibility,
// error-handling, concurrency and API-surface discipline the paper
// reproduction depends on. Copied locks are go vet's copylocks check.
// It is built from the standard library alone and works offline.
//
// Usage:
//
//	latticelint [-json] [packages]
//
// Packages default to ./... (every package in the module). A package
// may be given as ./... or as a directory path. Only non-test files
// are analyzed. Exit status is 0 when the tree has no unsuppressed
// findings, 1 when unsuppressed findings are reported, and 2 when the
// tool itself fails (parse or type-check error, bad flags).
//
// -json emits all findings (suppressed included, with a "suppressed"
// field) as a JSON array instead of one line per open finding.
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
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "latticelint:", err)
		return 2
	}

	modRoot, err := findModuleRoot()
	if err != nil {
		return fail(err)
	}
	loader, err := lint.NewLoader(modRoot)
	if err != nil {
		return fail(err)
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var pkgs []*lint.Package
	for _, pat := range patterns {
		if pat == "./..." || pat == "..." {
			all, err := loader.LoadAll()
			if err != nil {
				return fail(err)
			}
			pkgs = append(pkgs, all...)
			continue
		}
		pkg, err := loader.LoadDir(strings.TrimSuffix(pat, "/"))
		if err != nil {
			return fail(err)
		}
		pkgs = append(pkgs, pkg)
	}

	findings := lint.Run(pkgs, lint.All())
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
			return fail(err)
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
