package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// FloatCmp flags exact equality between floating-point values in the
// likelihood/estimation code, where rounding makes == a latent bug.
// Comparison against the exact-zero constant is exempt: guarding a
// division by an exactly-zero variance or an unset sentinel is
// well-defined IEEE behaviour and idiomatic in this codebase. Compare
// with a tolerance helper otherwise, or annotate a justified exact
// comparison with //lint:allow floatcmp.
var FloatCmp = &Analyzer{
	Name: "floatcmp",
	Scope: []string{
		"internal/phylo",
		"internal/estimate",
		"internal/forest",
		"internal/faults",
		"internal/dag",
		"internal/shard",
		"internal/admit",
	},
	Run: runFloatCmp,
}

func runFloatCmp(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			if !isFloat(p.TypeOf(bin.X)) && !isFloat(p.TypeOf(bin.Y)) {
				return true
			}
			if isZeroConst(p, bin.X) || isZeroConst(p, bin.Y) {
				return true
			}
			if isConst(p, bin.X) && isConst(p, bin.Y) {
				return true // constant folding is exact
			}
			p.Reportf(bin.OpPos, "floating-point values compared with %s; use a tolerance (see phylo.AlmostEqual) or //lint:allow floatcmp", bin.Op)
			return true
		})
	}
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isConst(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil
}

func isZeroConst(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	}
	return false
}
