package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// TaintDet is the interprocedural determinism-taint analyzer: it
// tracks values derived from wall-clock reads, the global math/rand
// source, os.Getenv, and map iteration order across assignments,
// function returns and call arguments — package boundaries included —
// and flags the flows that reach an ordered sink: obs journal and
// digest writes, WAL frames, metric exposition, printing, writer
// output and channel sends. It subsumes the old single-function map-range check of the
// determinism analyzer and shrinks its escape hatches to provably
// safe cases: a slice collected from a map but sorted before use is
// clean, and copying a map into a map carries no order at all. Use
// //lint:allow taintdet for justified exceptions.
var TaintDet = &Analyzer{
	Name:       "taintdet",
	Scope:      []string{"internal/...", "cmd/..."},
	RunProgram: runTaintDet,
}

// taintMark is one taint fact: what kind of nondeterminism, and where
// it originated.
type taintMark struct {
	kind string
	pos  token.Pos
}

const (
	kindClock = "the wall clock"
	kindRand  = "the global math/rand source"
	kindEnv   = "the process environment"
	kindOrder = "map iteration order"
)

// taintState is the whole-program fixpoint state.
type taintState struct {
	pp *ProgramPass
	// summaries, grown monotonically round over round
	retVal    map[*FuncInfo]*taintMark
	retOrd    map[*FuncInfo]*taintMark
	paramSink map[*FuncInfo][]bool
	reported  map[string]bool
}

func runTaintDet(pp *ProgramPass) {
	ts := &taintState{
		pp:        pp,
		retVal:    map[*FuncInfo]*taintMark{},
		retOrd:    map[*FuncInfo]*taintMark{},
		paramSink: map[*FuncInfo][]bool{},
		reported:  map[string]bool{},
	}
	// Fixpoint over function summaries: a function returning
	// time.Now() taints its callers; a function forwarding its
	// parameter to the journal makes every call site a sink.
	for round := 0; round < 10; round++ {
		changed := false
		for _, fi := range pp.Prog.FuncList {
			if ts.analyzeFunc(fi, false) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Reporting pass with converged summaries.
	for _, fi := range pp.Prog.FuncList {
		ts.analyzeFunc(fi, true)
	}
}

// funcTaint is the per-function dataflow state of one analysis pass.
type funcTaint struct {
	ts     *taintState
	fi     *FuncInfo
	vn     *ValueNums
	info   *types.Info
	val    map[int]*taintMark // value taint by value number
	ord    map[int]*taintMark // ordering taint by value number
	params map[int]int        // value number of parameter -> index
	report bool
	// orderCtx is non-nil while walking the body of a loop whose
	// iteration order is nondeterministic (a map range, or a range
	// over an order-tainted slice).
	orderCtx *taintMark
	changed  bool
}

// analyzeFunc runs the per-function pass; report selects between
// summary collection and finding emission. Returns whether any global
// summary changed.
func (ts *taintState) analyzeFunc(fi *FuncInfo, report bool) bool {
	ft := &funcTaint{
		ts:     ts,
		fi:     fi,
		vn:     fi.Vnum(),
		info:   fi.Pkg.Info,
		val:    map[int]*taintMark{},
		ord:    map[int]*taintMark{},
		params: map[int]int{},
		report: report,
	}
	if ts.paramSink[fi] == nil {
		sig := fi.Obj.Type().(*types.Signature)
		ts.paramSink[fi] = make([]bool, sig.Params().Len())
	}
	// Map parameter objects to their indices through value numbers.
	idx := 0
	if fi.Decl.Type.Params != nil {
		for _, field := range fi.Decl.Type.Params.List {
			for _, name := range field.Names {
				if obj := fi.Pkg.Info.Defs[name]; obj != nil {
					ft.params[ft.vn.NumberOf(name)] = idx
					idx++
				}
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
	}
	// Two passes catch loop-carried taint (assigned below its use);
	// the second pass re-runs with the first pass's end state.
	ft.walkStmts(fi.Decl.Body.List)
	ft.walkStmts(fi.Decl.Body.List)
	return ft.changed
}

func (ft *funcTaint) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		ft.stmt(s)
	}
}

func (ft *funcTaint) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		ft.walkStmts(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			ft.stmt(s.Init)
		}
		ft.expr(s.Cond)
		ft.stmt(s.Body)
		if s.Else != nil {
			ft.stmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			ft.stmt(s.Init)
		}
		if s.Cond != nil {
			ft.expr(s.Cond)
		}
		ft.stmt(s.Body)
		if s.Post != nil {
			ft.stmt(s.Post)
		}
	case *ast.RangeStmt:
		ft.rangeStmt(s)
	case *ast.SwitchStmt:
		if s.Init != nil {
			ft.stmt(s.Init)
		}
		if s.Tag != nil {
			ft.expr(s.Tag)
		}
		for _, c := range s.Body.List {
			ft.walkStmts(c.(*ast.CaseClause).Body)
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			ft.stmt(s.Init)
		}
		for _, c := range s.Body.List {
			ft.walkStmts(c.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				ft.stmt(cc.Comm)
			}
			ft.walkStmts(cc.Body)
		}
	case *ast.AssignStmt:
		ft.assign(s)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			ft.expr(r)
			if m := ft.exprVal(r); m != nil && ft.ts.retVal[ft.fi] == nil {
				ft.ts.retVal[ft.fi] = m
				ft.changed = true
			}
			if m := ft.exprOrd(r); m != nil && ft.ts.retOrd[ft.fi] == nil {
				ft.ts.retOrd[ft.fi] = m
				ft.changed = true
			}
		}
	case *ast.ExprStmt:
		ft.expr(s.X)
	case *ast.SendStmt:
		ft.expr(s.Chan)
		ft.expr(s.Value)
		// A channel send is an ordered sink: inside a
		// nondeterministically-ordered loop the receiver observes a
		// random order.
		if ft.orderCtx != nil {
			ft.reportf(s.Arrow, "range over map feeds a channel send: delivery order depends on map iteration; sort the keys first (origin %s)", ft.posf(ft.orderCtx.pos))
		}
		if m := ft.exprOrd(s.Value); m != nil {
			ft.reportf(s.Arrow, "slice built in %s (origin %s) is sent on a channel; sort it first", m.kind, ft.posf(m.pos))
		}
	case *ast.GoStmt:
		ft.call(s.Call)
	case *ast.DeferStmt:
		ft.call(s.Call)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, name := range vs.Names {
						if i < len(vs.Values) {
							ft.expr(vs.Values[i])
							ft.setTaint(name, ft.exprVal(vs.Values[i]), ft.exprOrd(vs.Values[i]))
						}
					}
				}
			}
		}
	case *ast.LabeledStmt:
		ft.stmt(s.Stmt)
	case *ast.IncDecStmt:
		ft.expr(s.X)
	}
}

// rangeStmt handles the one construct that *creates* order taint: a
// loop whose iteration order is not deterministic.
func (ft *funcTaint) rangeStmt(s *ast.RangeStmt) {
	ft.expr(s.X)
	var ctx *taintMark
	if t := ft.info.TypeOf(s.X); t != nil {
		if _, isMap := t.Underlying().(*types.Map); isMap {
			ctx = &taintMark{kind: kindOrder, pos: s.Pos()}
		}
	}
	if ctx == nil {
		if m := ft.exprOrd(s.X); m != nil {
			ctx = m // ranging a slice that was built in map order
		}
	}
	prev := ft.orderCtx
	if ctx != nil {
		ft.orderCtx = ctx
	}
	ft.stmt(s.Body)
	ft.orderCtx = prev
}

// assign propagates taint through one assignment statement, applying
// the append rule (a slice appended to inside a nondeterministic loop
// carries order taint) and recording sanitization implicitly: a
// reassignment from a clean value clears the variable.
func (ft *funcTaint) assign(as *ast.AssignStmt) {
	for _, rhs := range as.Rhs {
		ft.expr(rhs)
	}
	// Compound assignment (s += ...) joins instead of replacing: the
	// old value stays in the result, and building a string or sum
	// inside a nondeterministically-ordered loop orders the result by
	// that loop.
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE && len(as.Lhs) == 1 {
		n := ft.vn.NumberOf(as.Lhs[0])
		if ft.orderCtx != nil && ft.ord[n] == nil && orderSensitive(ft.info.TypeOf(as.Lhs[0])) {
			ft.ord[n] = ft.orderCtx
		}
		if len(as.Rhs) == 1 {
			if m := ft.exprVal(as.Rhs[0]); m != nil && ft.val[n] == nil {
				ft.val[n] = m
			}
			if m := ft.exprOrd(as.Rhs[0]); m != nil && ft.ord[n] == nil {
				ft.ord[n] = m
			}
		}
		return
	}
	if len(as.Lhs) == len(as.Rhs) {
		for i := range as.Lhs {
			ft.setTaint(as.Lhs[i], ft.exprVal(as.Rhs[i]), ft.exprOrd(as.Rhs[i]))
			ft.appendRule(as.Lhs[i], as.Rhs[i])
		}
		return
	}
	// a, b := f(): every result shares the call's taint.
	if len(as.Rhs) == 1 {
		v, o := ft.exprVal(as.Rhs[0]), ft.exprOrd(as.Rhs[0])
		for _, lhs := range as.Lhs {
			ft.setTaint(lhs, v, o)
		}
	}
}

// appendRule handles x = append(x, ...): inside a nondeterministic
// loop the result is ordered by that loop; anywhere, taint of the
// appended elements joins the slice.
func (ft *funcTaint) appendRule(lhs, rhs ast.Expr) {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return
	}
	if _, isBuiltin := ft.info.ObjectOf(id).(*types.Builtin); !isBuiltin {
		return
	}
	n := ft.vn.NumberOf(lhs)
	if ft.orderCtx != nil && ft.ord[n] == nil {
		ft.ord[n] = ft.orderCtx
	}
	if len(call.Args) > 0 {
		if m := ft.exprOrd(call.Args[0]); m != nil && ft.ord[n] == nil {
			ft.ord[n] = m
		}
	}
	for _, arg := range call.Args[min(1, len(call.Args)):] {
		if m := ft.exprVal(arg); m != nil && ft.val[n] == nil {
			ft.val[n] = m
		}
	}
}

// setTaint updates the taint of an assignable expression.
func (ft *funcTaint) setTaint(lhs ast.Expr, v, o *taintMark) {
	if isBlank(lhs) {
		return
	}
	switch ast.Unparen(lhs).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr:
		n := ft.vn.NumberOf(lhs)
		ft.val[n] = v
		if o != nil || ft.ord[n] == nil {
			ft.ord[n] = o
		}
	case *ast.IndexExpr:
		ie := ast.Unparen(lhs).(*ast.IndexExpr)
		// Writing into a map is order-insensitive (copying a map into
		// a map is clean); writing into a slice propagates value
		// taint at container granularity.
		if t := ft.info.TypeOf(ie.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				if v != nil {
					ft.val[ft.vn.NumberOf(ie.X)] = v
				}
				return
			}
		}
		n := ft.vn.NumberOf(lhs)
		if v != nil {
			ft.val[n] = v
		}
	}
}

// expr walks an expression, interpreting calls (sources, sinks,
// sanitizers, summaries) in evaluation order.
func (ft *funcTaint) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != ast.Node(e) {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			ft.call(call)
			return false // call() walks its own arguments
		}
		return true
	})
}

// call interprets one call expression.
func (ft *funcTaint) call(call *ast.CallExpr) {
	for _, arg := range call.Args {
		ft.expr(arg)
	}
	// Sanitizer: sorting a slice erases its order taint.
	if isSortCall(ft.info, call) && len(call.Args) > 0 {
		delete(ft.ord, ft.vn.NumberOf(call.Args[0]))
		return
	}
	fn := calleeOf(ft.info, call)
	// Ordered sinks: the obs journal, digests and exposition; WAL
	// frames; printing and writers (order taint only — printing a
	// timestamp from an interactive tool is not a finding, feeding
	// one into the journal is).
	if sinkName := ft.moduleSink(fn); sinkName != "" {
		ft.checkSinkArgs(call, sinkName, true)
	} else if outName := orderedOutput(ft.info, call); outName != "" {
		if ft.orderCtx != nil {
			ft.reportf(call.Pos(), "range over map feeds %s: emission order depends on map iteration; sort the keys first (origin %s)", outName, ft.posf(ft.orderCtx.pos))
		}
		ft.checkSinkArgs(call, outName, false)
	}
	// Interprocedural: a callee that forwards a parameter to a sink
	// makes this call site a sink for that argument.
	if target := ft.targetOf(fn); target != nil {
		sinks := ft.ts.paramSink[target]
		for i, arg := range call.Args {
			if i < len(sinks) && sinks[i] {
				if m := ft.exprVal(arg); m != nil {
					ft.reportf(call.Pos(), "value derived from %s (origin %s) reaches an ordered sink through %s", m.kind, ft.posf(m.pos), target.Name())
				} else if m := ft.exprOrd(arg); m != nil {
					ft.reportf(call.Pos(), "slice built in %s (origin %s) reaches an ordered sink through %s", m.kind, ft.posf(m.pos), target.Name())
				} else if pi, isParam := ft.paramIndexOf(arg); isParam {
					ft.markParamSink(pi)
				}
			}
		}
	}
}

// checkSinkArgs reports tainted arguments flowing into a sink and
// records parameter-to-sink summaries. valSink selects whether value
// taint (wall clock etc.) is reportable, not just order taint.
func (ft *funcTaint) checkSinkArgs(call *ast.CallExpr, sinkName string, valSink bool) {
	for _, arg := range call.Args {
		if valSink {
			if m := ft.exprVal(arg); m != nil {
				ft.reportf(call.Pos(), "value derived from %s (origin %s) flows into %s: an ordered, digested output must be seed-deterministic", m.kind, ft.posf(m.pos), sinkName)
				continue
			}
		}
		if m := ft.exprOrd(arg); m != nil {
			ft.reportf(call.Pos(), "slice built in %s (origin %s) flows into %s; sort it before emitting", m.kind, ft.posf(m.pos), sinkName)
			continue
		}
		if valSink {
			if pi, isParam := ft.paramIndexOf(arg); isParam {
				ft.markParamSink(pi)
			}
		}
	}
	if valSink && ft.orderCtx != nil {
		ft.reportf(call.Pos(), "range over map feeds %s: emission order depends on map iteration; sort the keys first (origin %s)", sinkName, ft.posf(ft.orderCtx.pos))
	}
}

func (ft *funcTaint) markParamSink(i int) {
	sinks := ft.ts.paramSink[ft.fi]
	if i < len(sinks) && !sinks[i] {
		sinks[i] = true
		ft.changed = true
	}
}

// paramIndexOf resolves an argument expression to one of the current
// function's parameters.
func (ft *funcTaint) paramIndexOf(arg ast.Expr) (int, bool) {
	switch ast.Unparen(arg).(type) {
	case *ast.Ident, *ast.SelectorExpr:
		i, ok := ft.params[ft.vn.NumberOf(arg)]
		return i, ok
	}
	return 0, false
}

// targetOf maps a static callee to its module FuncInfo.
func (ft *funcTaint) targetOf(fn *types.Func) *FuncInfo {
	if fn == nil {
		return nil
	}
	return ft.ts.pp.Prog.Funcs[fn]
}

// moduleSink names obs/WAL calls — the ordered, digested outputs the
// paper's reproducibility hangs on.
func (ft *funcTaint) moduleSink(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	path := fn.Pkg().Path()
	if matchScope(path, "internal/obs") || matchScope(path, "internal/wal") {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return ""
}

// exprVal computes the value taint of an expression.
func (ft *funcTaint) exprVal(e ast.Expr) *taintMark {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		if m := ft.val[ft.vn.NumberOf(e.(ast.Expr))]; m != nil {
			return m
		}
		if sel, ok := e.(*ast.SelectorExpr); ok {
			return ft.exprVal(sel.X) // field of a tainted struct
		}
		return nil
	case *ast.CallExpr:
		if m := taintSource(ft.info, e); m != nil {
			return m
		}
		if target := ft.targetOf(calleeOf(ft.info, e)); target != nil {
			return ft.ts.retVal[target]
		}
		// Conversions carry their operand's taint.
		if tv, ok := ft.info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return ft.exprVal(e.Args[0])
		}
		// Unknown callee (stdlib, func value): the result inherits the
		// taint of the receiver and the arguments — time.Now().Unix()
		// or fmt.Sprint(tainted) stay tainted.
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if m := ft.exprVal(sel.X); m != nil {
				return m
			}
		}
		for _, arg := range e.Args {
			if m := ft.exprVal(arg); m != nil {
				return m
			}
		}
		return nil
	case *ast.BinaryExpr:
		if m := ft.exprVal(e.X); m != nil {
			return m
		}
		return ft.exprVal(e.Y)
	case *ast.UnaryExpr:
		return ft.exprVal(e.X)
	}
	return nil
}

// exprOrd computes the ordering taint of an expression.
func (ft *funcTaint) exprOrd(e ast.Expr) *taintMark {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return ft.ord[ft.vn.NumberOf(e.(ast.Expr))]
	case *ast.CallExpr:
		if target := ft.targetOf(calleeOf(ft.info, e)); target != nil {
			return ft.ts.retOrd[target]
		}
		// Unknown callee: an order-sensitive result built from an
		// order-tainted argument stays ordered (strings.Join of keys
		// collected in map order), but a length or a sum does not.
		if isSortCall(ft.info, e) || !orderSensitive(ft.info.TypeOf(e)) {
			return nil
		}
		for _, arg := range e.Args {
			if m := ft.exprOrd(arg); m != nil {
				return m
			}
		}
	case *ast.BinaryExpr:
		if m := ft.exprOrd(e.X); m != nil {
			return m
		}
		return ft.exprOrd(e.Y)
	}
	return nil
}

func (ft *funcTaint) reportf(pos token.Pos, format string, args ...any) {
	if !ft.report {
		return
	}
	key := fmt.Sprintf("%d|%s", pos, format)
	if ft.ts.reported[key] {
		return
	}
	ft.ts.reported[key] = true
	ft.ts.pp.Reportf(pos, format, args...)
}

func (ft *funcTaint) posf(pos token.Pos) string { return ft.ts.pp.Posf(pos) }

// taintSource recognizes the nondeterminism sources: wall-clock
// reads, the global math/rand source, and environment reads.
func taintSource(info *types.Info, call *ast.CallExpr) *taintMark {
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			return &taintMark{kind: kindClock, pos: call.Pos()}
		}
	case "math/rand", "math/rand/v2":
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil && globalRandFuncs[fn.Name()] {
			return &taintMark{kind: kindRand, pos: call.Pos()}
		}
	case "os":
		switch fn.Name() {
		case "Getenv", "LookupEnv", "Environ":
			return &taintMark{kind: kindEnv, pos: call.Pos()}
		}
	}
	return nil
}

// orderSensitive reports whether accumulating into a value of type t
// observes accumulation order: strings and slices do, numeric sums
// and counters are commutative.
func orderSensitive(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return true
	case *types.Basic:
		return u.Info()&types.IsString != 0
	}
	return false
}

// isSortCall recognizes the sanctioned order sanitizers.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort", "slices":
		return true
	}
	return false
}

// orderedOutput classifies a call as an order-sensitive output:
// printing, or a Write method. (The determinism analyzer's old
// map-range check lives here now, with dataflow behind it.)
func orderedOutput(info *types.Info, call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin && id.Name == "append" {
			return "" // append propagates order taint instead (see appendRule)
		}
	}
	fn := calleeOf(info, call)
	if fn == nil {
		return ""
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && fn.Name() != "Sprintf" && fn.Name() != "Errorf" && fn.Name() != "Sprint" && fn.Name() != "Sprintln" {
		return "fmt." + fn.Name()
	}
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return "a writer"
		}
	}
	return ""
}
