// Package lint is latticelint's engine: a stdlib-only static-analysis
// framework (go/ast, go/parser, go/token, go/types — no external
// dependencies, offline-buildable) with project-specific analyzers
// that enforce the determinism and error-handling discipline the
// paper's reproduction depends on. The grid simulator, forest trainer
// and meta-scheduler must produce identical output for identical
// seeds; the analyzers flag the constructs that silently break that
// property (wall-clock reads, global RNG state, map-iteration-ordered
// output) along with classic correctness hazards (discarded errors,
// exact float comparison, copied locks, dead assignments).
//
// Findings can be suppressed with an explicit escape hatch:
//
//	//lint:allow determinism -- reason why this is safe
//
// placed either on the flagged line or alone on the line directly
// above it. Multiple analyzers may be listed, comma-separated.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer. Suppressed
// findings (covered by a //lint:allow directive) are retained so
// machine consumers can audit the escape hatches, but do not fail the
// run.
type Finding struct {
	Analyzer   string         `json:"analyzer"`
	Pos        token.Position `json:"-"`
	File       string         `json:"file"`
	Line       int            `json:"line"`
	Col        int            `json:"col"`
	Message    string         `json:"message"`
	Suppressed bool           `json:"suppressed"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	analyzer *Analyzer
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.analyzer.Name,
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ObjectOf resolves an identifier to its object (definition or use).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Info.ObjectOf(id) }

// Callee resolves the called function or method of a call expression,
// seeing through parentheses. It returns nil for calls of builtins,
// function-typed variables and type conversions.
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.ObjectOf(id).(*types.Func)
	return fn
}

// ProgramPass carries the whole program through one dataflow
// analyzer.
type ProgramPass struct {
	Prog *Program

	analyzer *Analyzer
	findings *[]Finding
	fset     *token.FileSet
}

// Reportf records a finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.analyzer.Name,
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Posf formats a position for embedding in a finding message.
func (p *ProgramPass) Posf(pos token.Pos) string {
	position := p.fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(position.Filename), position.Line)
}

// Analyzer is one named check: either a per-package syntactic pass
// (Run) or a whole-program dataflow pass (RunProgram).
type Analyzer struct {
	Name string
	Doc  string
	// Scope restricts the analyzer to packages whose import path ends
	// with one of these suffixes; a "dir/..." entry matches every
	// package at or under that directory anywhere in the module.
	// Empty means every package.
	Scope []string
	// Tests opts the analyzer into _test.go files (when the loader
	// included them). Analyzers without it never report there.
	Tests      bool
	Run        func(*Pass)
	RunProgram func(*ProgramPass)
}

// AppliesTo reports whether the analyzer runs on the package with the
// given import path.
func (a *Analyzer) AppliesTo(pkgPath string) bool {
	if len(a.Scope) == 0 {
		return true
	}
	for _, s := range a.Scope {
		if matchScope(pkgPath, s) {
			return true
		}
	}
	return false
}

// matchScope matches one scope entry: either a path-suffix package
// name or a "dir/..." subtree wildcard ("internal/..." matches
// lattice/internal/sim and everything below internal/).
func matchScope(pkgPath, pat string) bool {
	if base, ok := strings.CutSuffix(pat, "/..."); ok {
		return pkgPath == base || strings.HasSuffix(pkgPath, "/"+base) ||
			strings.HasPrefix(pkgPath, base+"/") ||
			strings.Contains(pkgPath, "/"+base+"/")
	}
	return pkgPath == pat || strings.HasSuffix(pkgPath, "/"+pat) || strings.HasSuffix(pkgPath, pat)
}

// All returns the full analyzer suite in stable order: the syntactic
// passes first, then the whole-program dataflow passes.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		ErrDrop,
		FloatCmp,
		SyncMisuse,
		DeadAssign,
		LockOrder,
		GoroLeak,
		TaintDet,
		DeadExport,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunAnalyzers applies each per-package analyzer that is in scope for
// pkg and returns its findings sorted by position, with findings
// covered by a //lint:allow directive marked Suppressed (use
// Unsuppressed to drop them). Whole-program analyzers are skipped;
// run those with RunWholeProgram.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, a := range analyzers {
		if a.Run == nil || !a.AppliesTo(pkg.Path) {
			continue
		}
		files := pkg.Files
		if a.Tests {
			files = append(append([]*ast.File{}, pkg.Files...), pkg.TestFiles...)
		}
		pass := &Pass{
			Fset:     pkg.Fset,
			Files:    files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			analyzer: a,
			findings: &findings,
		}
		a.Run(pass)
	}
	markSuppressed(allowSet(pkg.Fset, pkg.AllFiles()), findings)
	sortFindings(findings)
	return findings
}

// RunWholeProgram applies each dataflow analyzer to the program and
// returns the findings that land in packages within the analyzer's
// scope, sorted by position and marked Suppressed where a
// //lint:allow directive covers them. Findings in _test.go files are
// kept only for analyzers that opt into tests.
func RunWholeProgram(prog *Program, analyzers []*Analyzer) []Finding {
	if len(prog.Packages) == 0 {
		return nil
	}
	fset := prog.Packages[0].Fset
	var findings []Finding
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		var raw []Finding
		a.RunProgram(&ProgramPass{
			Prog:     prog,
			analyzer: a,
			findings: &raw,
			fset:     fset,
		})
		for _, f := range raw {
			if strings.HasSuffix(f.File, "_test.go") && !a.Tests {
				continue
			}
			if pkg := prog.PackageOf(f.File); pkg == nil || !a.AppliesTo(pkg.Path) {
				continue
			}
			findings = append(findings, f)
		}
	}
	var files []*ast.File
	for _, pkg := range prog.Packages {
		files = append(files, pkg.AllFiles()...)
	}
	markSuppressed(allowSet(fset, files), findings)
	sortFindings(findings)
	return findings
}

// Unsuppressed filters out findings covered by an allow directive.
func Unsuppressed(findings []Finding) []Finding {
	var kept []Finding
	for _, f := range findings {
		if !f.Suppressed {
			kept = append(kept, f)
		}
	}
	return kept
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].File != findings[j].File {
			return findings[i].File < findings[j].File
		}
		if findings[i].Line != findings[j].Line {
			return findings[i].Line < findings[j].Line
		}
		if findings[i].Col != findings[j].Col {
			return findings[i].Col < findings[j].Col
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
}

// allowDirective is the comment prefix of the escape hatch.
const allowDirective = "//lint:allow"

// allowKey identifies one (file, line, analyzer) an allow directive
// covers.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// allowSet collects every //lint:allow directive in the files. A
// directive suppresses the listed analyzers on its own line and, when
// the comment stands alone on a line, on the directly following line.
func allowSet(fset *token.FileSet, files []*ast.File) map[allowKey]bool {
	allowed := map[allowKey]bool{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, allowDirective) {
					continue
				}
				rest := strings.TrimPrefix(text, allowDirective)
				if reason := strings.Index(rest, "--"); reason >= 0 {
					rest = rest[:reason]
				}
				pos := fset.Position(c.Pos())
				for _, name := range strings.Split(rest, ",") {
					name = strings.TrimSpace(name)
					if name == "" {
						continue
					}
					allowed[allowKey{pos.Filename, pos.Line, name}] = true
					// A comment alone on its line covers the next line.
					if pos.Column == 1 || startsLine(fset, f, c) {
						allowed[allowKey{pos.Filename, pos.Line + 1, name}] = true
					}
				}
			}
		}
	}
	return allowed
}

// markSuppressed flags findings covered by an allow directive.
func markSuppressed(allowed map[allowKey]bool, findings []Finding) {
	if len(allowed) == 0 {
		return
	}
	for i := range findings {
		fd := &findings[i]
		if allowed[allowKey{fd.File, fd.Line, fd.Analyzer}] || allowed[allowKey{fd.File, fd.Line, "all"}] {
			fd.Suppressed = true
		}
	}
}

// startsLine reports whether comment c is the first token on its line
// (i.e. no code precedes it), by checking every node position in the
// file is not on the same line before it. A cheap approximation that
// only needs to distinguish trailing comments from standalone ones:
// trailing comments follow code, so some declaration token shares
// their line with a smaller column.
func startsLine(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	cpos := fset.Position(c.Pos())
	sameLineCode := false
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || sameLineCode {
			return false
		}
		p := fset.Position(n.Pos())
		if p.Line == cpos.Line && p.Column < cpos.Column {
			sameLineCode = true
			return false
		}
		return true
	})
	return !sameLineCode
}
