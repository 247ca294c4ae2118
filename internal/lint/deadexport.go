package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// DeadExport flags exported API nothing in the module's own non-test
// code uses: a func, method, type, struct field, const or var that no
// non-test file references outside its own declaration. An internal/
// package has no importer outside the module, and the root package's
// public surface is what the examples use, so an export that only
// tests (or nothing) reference is surface that has to be read,
// documented and kept compiling for no caller — the residue every
// "thread one more parameter" entry point left behind. Delete it,
// unexport it, or keep it with //lint:allow deadexport -- <why it
// stays>.
//
// A method counts as referenced when its receiver implements an
// interface that declares it (module interfaces, named or literal, and
// the named interfaces of directly imported packages); a struct field
// counts when it carries a tag (encoding/json reaches it by
// reflection). The answer is only meaningful over the whole module
// (./...): a package loaded alone has no callers in view.
var DeadExport = &Analyzer{
	Name:       "deadexport",
	RunProgram: runDeadExport,
}

// exportDecl is one exported declaration under judgement.
type exportDecl struct {
	obj  types.Object
	kind string // "func", "method", "type", "field", "const", "var"
	name string // diagnostic name: Func, Type.Method, Type.Field
	// own is the syntax the declaration itself spans; references inside
	// it (recursion, a type naming itself) do not make it live.
	own ast.Node
	// recv is the named receiver type of a method.
	recv *types.Named
}

func runDeadExport(pp *ProgramPass) {
	var decls []exportDecl
	for _, pkg := range pp.Prog.Packages {
		if pkg.Types.Name() == "main" {
			continue // nothing can import a command
		}
		for _, f := range pkg.Files {
			decls = append(decls, exportedDecls(pkg, f)...)
		}
	}
	used := moduleUses(pp.Prog, decls)
	ifaces := interfaceIndex(pp.Prog)
	for _, d := range decls {
		if used[d.obj] || (d.kind == "method" && satisfiesInterface(d, ifaces)) {
			continue
		}
		pp.Reportf(d.obj.Pos(), "exported %s %s is referenced by no non-test file of the module outside its own declaration; delete it, unexport it, or //lint:allow deadexport with the reason it stays",
			d.kind, d.name)
	}
}

// exportedDecls lists the exported funcs, methods of exported types,
// types, untagged struct fields, consts and vars one file declares.
func exportedDecls(pkg *Package, f *ast.File) []exportDecl {
	var out []exportDecl
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			fn, ok := pkg.Info.Defs[decl.Name].(*types.Func)
			if !ok || !fn.Exported() {
				continue
			}
			d := exportDecl{obj: fn, kind: "func", name: fn.Name(), own: decl}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				named := namedOf(recv.Type())
				if named == nil || !named.Obj().Exported() {
					continue
				}
				d.kind, d.name, d.recv = "method", named.Obj().Name()+"."+fn.Name(), named
			}
			out = append(out, d)
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						if obj := pkg.Info.Defs[id]; obj != nil && obj.Exported() {
							out = append(out, exportDecl{obj: obj, kind: decl.Tok.String(), name: obj.Name(), own: spec})
						}
					}
				case *ast.TypeSpec:
					tn, ok := pkg.Info.Defs[spec.Name].(*types.TypeName)
					if !ok || !tn.Exported() {
						continue
					}
					out = append(out, exportDecl{obj: tn, kind: "type", name: tn.Name(), own: spec})
					st, ok := spec.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						if field.Tag != nil {
							continue
						}
						for _, id := range field.Names {
							if v, ok := pkg.Info.Defs[id].(*types.Var); ok && v.Exported() {
								out = append(out, exportDecl{obj: v, kind: "field", name: tn.Name() + "." + v.Name(), own: spec})
							}
						}
					}
				}
			}
		}
	}
	return out
}

// namedOf unwraps a receiver type to its named type.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// moduleUses is the set of objects some non-test file references
// outside the referenced declaration's own syntax. A method's receiver
// does not count as a use of its type: a type only its own methods
// mention has no user.
func moduleUses(prog *Program, decls []exportDecl) map[types.Object]bool {
	own := make(map[types.Object]ast.Node, len(decls))
	for _, d := range decls {
		own[d.obj] = d.own
	}
	used := map[types.Object]bool{}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			var skip *ast.FieldList
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					skip = n.Recv
				case *ast.FieldList:
					if n == skip && n != nil {
						return false
					}
				case *ast.Ident:
					obj := originOf(pkg.Info.Uses[n])
					if obj == nil {
						return true
					}
					if decl := own[obj]; decl == nil || n.Pos() < decl.Pos() || n.Pos() >= decl.End() {
						used[obj] = true
					}
				}
				return true
			})
		}
	}
	return used
}

// originOf maps an instantiated generic's method or field back to the
// declared object.
func originOf(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// interfaceIndex maps a method name to the interfaces declaring it:
// every interface type written in a non-test file of the module, named
// or literal, plus the named interfaces exported by the packages the
// module imports directly (http.Handler, fmt.Stringer, error, …).
func interfaceIndex(prog *Program) map[string][]*types.Interface {
	var all []*types.Interface
	imported := map[*types.Package]bool{}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if t, ok := pkg.Info.TypeOf(it).(*types.Interface); ok {
						all = append(all, t)
					}
				}
				return true
			})
		}
		for _, imp := range pkg.Types.Imports() {
			imported[imp] = true
		}
	}
	deps := make([]*types.Package, 0, len(imported))
	for imp := range imported {
		deps = append(deps, imp)
	}
	sort.Slice(deps, func(i, j int) bool { return deps[i].Path() < deps[j].Path() })
	all = append(all, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, imp := range deps {
		scope := imp.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if t, ok := tn.Type().Underlying().(*types.Interface); ok {
				all = append(all, t)
			}
		}
	}
	index := map[string][]*types.Interface{}
	for _, t := range all {
		for i := 0; i < t.NumMethods(); i++ {
			name := t.Method(i).Name()
			index[name] = append(index[name], t)
		}
	}
	return index
}

// satisfiesInterface reports whether the method is how its receiver
// implements some interface: calls through the interface reach it
// without ever naming it.
func satisfiesInterface(d exportDecl, ifaces map[string][]*types.Interface) bool {
	ptr := types.NewPointer(d.recv)
	for _, it := range ifaces[d.obj.Name()] {
		if types.Implements(d.recv, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}
