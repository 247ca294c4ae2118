package lint

import (
	"go/ast"
	"go/types"
)

// DeadAssign flags `_ = x` statements that throw away a computed
// local: the value was produced, named, and then deliberately
// ignored — either the computation is dead weight or the value was
// meant to be used. Only function-local variables and parameters
// count; remove the assignment (and the computation, if now unused) or
// use the value. Blanked errors are errdrop's department and are not
// double-reported here, and package-level var _ = ... declarations
// (compile-time assertions) are not flagged.
var DeadAssign = &Analyzer{
	Name: "deadassign",
	Run:  runDeadAssign,
}

func runDeadAssign(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				if !isBlank(lhs) || i >= len(as.Rhs) {
					continue
				}
				id, ok := ast.Unparen(as.Rhs[i]).(*ast.Ident)
				if !ok {
					continue
				}
				obj, ok := p.ObjectOf(id).(*types.Var)
				if !ok || obj.Pkg() == nil {
					continue
				}
				// Only function-scoped variables: package-level blank
				// reads are assertions, fields need a selector anyway.
				if obj.Parent() == nil || obj.Parent() == p.Pkg.Scope() || obj.IsField() {
					continue
				}
				if isErrorType(obj.Type()) {
					continue // errdrop reports blanked errors
				}
				p.Reportf(as.Pos(), "dead assignment: local %q is computed and then discarded; remove it or use the value", id.Name)
			}
			return true
		})
	}
}
