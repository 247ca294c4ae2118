package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroLeak flags goroutines launched with no join path and no stop
// path: no sync.WaitGroup.Done, no send or close on a channel the
// launching function provably receives from, and no receive from a
// stop/work channel inside the goroutine itself. A stranded worker is
// exactly what crash recovery's deterministic re-execution cannot
// tolerate: the replayed coordinator must reach the same quiescent
// state as the original, and a goroutine nobody waits for keeps
// running (and mutating) after the run is supposedly done. Use
// //lint:allow goroleak with a justification for process-lifetime
// goroutines.
var GoroLeak = &Analyzer{
	Name:       "goroleak",
	Scope:      []string{"internal/...", "cmd/...", "examples/..."},
	RunProgram: runGoroLeak,
}

func runGoroLeak(pp *ProgramPass) {
	for _, fi := range pp.Prog.FuncList {
		info := fi.Pkg.Info
		// enclosing tracks the innermost function body surrounding
		// each go statement: that body is where join evidence (a
		// receive, a Wait) must live.
		var walk func(n ast.Node, parent ast.Node)
		walk = func(n ast.Node, parent ast.Node) {
			ast.Inspect(n, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.FuncLit:
					if m != n {
						walk(m.Body, m.Body)
						return false
					}
				case *ast.GoStmt:
					checkGo(pp, fi, info, m, parent)
				}
				return true
			})
		}
		walk(fi.Decl.Body, fi.Decl.Body)
	}
}

// checkGo inspects one go statement.
func checkGo(pp *ProgramPass, fi *FuncInfo, info *types.Info, g *ast.GoStmt, parent ast.Node) {
	var body *ast.BlockStmt
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		body = fun.Body
	default:
		// A named function or method: analyze its body if it is
		// declared in the module. Unknown bodies (stdlib, func
		// values) cannot be proven leaky — stay silent.
		fn := calleeOf(info, g.Call)
		if fn == nil {
			return
		}
		if target := pp.Prog.Funcs[fn]; target != nil {
			body = target.Decl.Body
		} else {
			return
		}
	}
	if hasJoinEvidence(info, body) {
		return
	}
	// The goroutine body itself shows no discipline; the launch is
	// still joined if it communicates over a channel the parent
	// receives from or closes ceremony around. Collect channels the
	// goroutine writes and check the parent reads them.
	if parentReceivesFrom(info, parent, body, g) {
		return
	}
	pp.Reportf(g.Pos(), "goroutine has no join or stop path: no WaitGroup.Done, no send on a channel the parent receives from, and no stop-channel receive; a stranded worker outlives recovery re-execution")
}

// hasJoinEvidence reports whether the goroutine body contains its own
// termination discipline: a WaitGroup.Done call (direct or deferred),
// a receive or range over a variable-backed channel (a stop or work
// channel that the owner can close), a select statement, or a
// context.Done call.
func hasJoinEvidence(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt:
			found = true
		case *ast.CallExpr:
			if isWaitGroupCall(info, n, "Done") || isContextDone(info, n) {
				found = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && variableBacked(n.X) {
				found = true
			}
		case *ast.RangeStmt:
			if isChanType(info.TypeOf(n.X)) && variableBacked(n.X) {
				found = true
			}
		}
		return !found
	})
	return found
}

// variableBacked reports whether a channel expression is a variable
// (identifier, field or element) rather than a fresh call result:
// `for range time.Tick(d)` is an unstoppable channel nobody owns,
// while `for range s.ticker.C` has an owner who can stop it.
func variableBacked(e ast.Expr) bool {
	switch ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
		return true
	}
	return false
}

func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// isWaitGroupCall matches (*sync.WaitGroup).<name> calls.
func isWaitGroupCall(info *types.Info, call *ast.CallExpr, name string) bool {
	fn := calleeOf(info, call)
	if fn == nil || fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "WaitGroup"
}

// isContextDone matches ctx.Done() from context.Context.
func isContextDone(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeOf(info, call)
	return fn != nil && fn.Name() == "Done" && fn.Pkg() != nil && fn.Pkg().Path() == "context"
}

// parentReceivesFrom reports whether the launching function receives
// from (or ranges over) a channel object the goroutine body sends on
// or closes — the classic result-channel join.
func parentReceivesFrom(info *types.Info, parent ast.Node, body *ast.BlockStmt, g *ast.GoStmt) bool {
	written := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if obj := chanObj(info, n.Chan); obj != nil {
				written[obj] = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
					if obj := chanObj(info, n.Args[0]); obj != nil {
						written[obj] = true
					}
				}
			}
		}
		return true
	})
	if len(written) == 0 {
		return false
	}
	received := false
	ast.Inspect(parent, func(n ast.Node) bool {
		if received {
			return false
		}
		// The goroutine's own body sends; receives there don't count.
		if n == ast.Node(g) {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if obj := chanObj(info, n.X); obj != nil && written[obj] {
					received = true
				}
			}
		case *ast.RangeStmt:
			if obj := chanObj(info, n.X); obj != nil && written[obj] && isChanType(info.TypeOf(n.X)) {
				received = true
			}
		}
		return !received
	})
	return received
}

// chanObj resolves a channel expression to the variable or field
// object that names it.
func chanObj(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.ObjectOf(e)
	case *ast.SelectorExpr:
		return info.ObjectOf(e.Sel)
	}
	return nil
}
