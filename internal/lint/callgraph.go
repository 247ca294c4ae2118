package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// This file is the whole-program layer of the dataflow engine: an
// index of every function declared in the loaded packages and, per
// function, the static call sites into other module functions. The
// three dataflow analyzers (lockorder, goroleak, taintdet) run their
// fixpoints over this graph, so a summary computed for a callee —
// "acquires lock class X", "may send on a channel", "parameter 2
// reaches the journal" — propagates to callers across package
// boundaries.

// Program is every loaded package plus the cross-package call graph.
type Program struct {
	Packages []*Package
	// Funcs indexes every declared function and method with a body.
	Funcs map[*types.Func]*FuncInfo
	// FuncList is Funcs in deterministic order: package path, then
	// file, then declaration order.
	FuncList []*FuncInfo

	byDir map[string]*Package
}

// FuncInfo is one declared function in the program.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls are the function's call sites in lexical order, including
	// calls inside nested function literals.
	Calls []*CallSite

	cfg  *CFG
	vnum *ValueNums
}

// CallSite is one call expression inside a function.
type CallSite struct {
	Call   *ast.CallExpr
	Callee *types.Func // nil for dynamic calls (func values)
	Target *FuncInfo   // non-nil when the callee is declared in the module
	// InGo marks calls lexically inside a `go` statement's function
	// literal — they run on another goroutine, so caller-held state
	// does not transfer.
	InGo bool
}

// CFG lazily builds and caches the function's control-flow graph.
func (fi *FuncInfo) CFG() *CFG {
	if fi.cfg == nil {
		fi.cfg = BuildCFG(fi.Decl.Body)
	}
	return fi.cfg
}

// Vnum lazily builds and caches the function's value numbering.
func (fi *FuncInfo) Vnum() *ValueNums {
	if fi.vnum == nil {
		fi.vnum = NewValueNums(fi.Pkg.Info, fi.Decl.Body)
	}
	return fi.vnum
}

// Callee resolves the static callee of a call inside this function,
// like Pass.Callee but against the function's own package info.
func (fi *FuncInfo) Callee(call *ast.CallExpr) *types.Func {
	return calleeOf(fi.Pkg.Info, call)
}

// Name returns a diagnostic-friendly name: pkg.Func or pkg.(Type).Method.
func (fi *FuncInfo) Name() string {
	obj := fi.Obj
	name := obj.Name()
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		if tc := (&ValueNums{}).typeCanonOf(sig.Recv().Type()); tc != "" {
			if i := strings.LastIndexByte(tc, '.'); i >= 0 {
				tc = tc[i+1:]
			}
			name = tc + "." + name
		}
	}
	if obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + name
	}
	return name
}

// calleeOf is Pass.Callee over info, for the passes that walk the whole
// program rather than one package.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.ObjectOf(id).(*types.Func)
	return fn
}

// newProgram indexes the packages and resolves every static call site.
func newProgram(pkgs []*Package) *Program {
	prog := &Program{
		Funcs: map[*types.Func]*FuncInfo{},
		byDir: map[string]*Package{},
	}
	prog.Packages = pkgs
	for _, pkg := range pkgs {
		prog.byDir[pkg.Dir] = pkg
		for _, f := range pkg.Files {
			prog.indexFile(pkg, f)
		}
	}
	// Resolve call sites after the full index exists so cross-package
	// targets are found regardless of load order.
	for _, fi := range prog.FuncList {
		prog.collectCalls(fi)
	}
	return prog
}

func (prog *Program) indexFile(pkg *Package, f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		fi := &FuncInfo{Obj: obj, Decl: fd, Pkg: pkg}
		prog.Funcs[obj] = fi
		prog.FuncList = append(prog.FuncList, fi)
	}
}

func (prog *Program) collectCalls(fi *FuncInfo) {
	var walk func(n ast.Node, inGo bool)
	walk = func(n ast.Node, inGo bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.GoStmt:
				// The call's arguments are evaluated here, but the
				// call itself (and any literal body) runs elsewhere.
				site := prog.siteFor(fi, m.Call)
				site.InGo = true
				fi.Calls = append(fi.Calls, site)
				if lit, ok := m.Call.Fun.(*ast.FuncLit); ok {
					walk(lit.Body, true)
				}
				for _, arg := range m.Call.Args {
					walk(arg, inGo)
				}
				return false
			case *ast.CallExpr:
				site := prog.siteFor(fi, m)
				site.InGo = inGo
				fi.Calls = append(fi.Calls, site)
			}
			return true
		})
	}
	walk(fi.Decl.Body, false)
}

func (prog *Program) siteFor(fi *FuncInfo, call *ast.CallExpr) *CallSite {
	site := &CallSite{Call: call}
	if fn := fi.Callee(call); fn != nil {
		site.Callee = fn
		site.Target = prog.Funcs[fn]
	}
	return site
}

// PackageOf maps a finding position back to the package that owns the
// file, for scope filtering of whole-program findings.
func (prog *Program) PackageOf(filename string) *Package {
	return prog.byDir[filepath.Dir(filename)]
}
