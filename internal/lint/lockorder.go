package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockOrder is the whole-program deadlock analyzer: it derives every
// mutex lock class's acquisition order across packages from the call
// graph and flags (a) pairs of lock classes acquired in both orders
// anywhere in the program, (b) a lock class re-entered while an
// instance of it is already held, directly or through a callee, and
// (c) locks held across operations that can block indefinitely or
// re-enter the lock — channel sends and receives, calls of
// function-typed values (callbacks), and blocking I/O (time.Sleep,
// net, net/http). This is the bug class the BOINC server was
// race-hardened against by hand: callbacks must run outside the lock.
// Lock identity is the lock class (pkg.Type.field or a package-level
// variable); aliases through local pointers resolve via value
// numbering. Use //lint:allow lockorder for justified exceptions.
var LockOrder = &Analyzer{
	Name:       "lockorder",
	Scope:      []string{"internal/...", "cmd/..."},
	RunProgram: runLockOrder,
}

// lockOp classifies one mutex method call.
type lockOp int

const (
	lockAcquire lockOp = iota // Lock, RLock, TryLock
	lockRelease               // Unlock, RUnlock
)

// mutexCall recognizes sync.Mutex / sync.RWMutex method calls and
// returns the lock identity of the receiver.
func mutexCall(info *types.Info, vn *ValueNums, call *ast.CallExpr) (key string, op lockOp, write, ok bool) {
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", 0, false, false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", 0, false, false
	}
	recv := sig.Recv().Type()
	if p, isPtr := recv.(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	named, isNamed := recv.(*types.Named)
	if !isNamed || (named.Obj().Name() != "Mutex" && named.Obj().Name() != "RWMutex") {
		return "", 0, false, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false, false
	}
	key = vn.Canon(sel.X)
	if key == "" {
		key = "expr:" + types.ExprString(sel.X)
	}
	switch fn.Name() {
	case "Lock", "TryLock":
		return key, lockAcquire, true, true
	case "RLock", "TryRLock":
		return key, lockAcquire, false, true
	case "Unlock", "RUnlock":
		return key, lockRelease, false, true
	}
	return "", 0, false, false
}

// lockSummary is one function's interprocedural summary.
type lockSummary struct {
	acquires map[string]bool // lock classes the function may acquire, transitively
	sends    bool            // may perform a channel send or receive
	blocks   bool            // may call blocking I/O
}

type lockOrderState struct {
	pp *ProgramPass
	// summaries per declared function
	sums map[*FuncInfo]*lockSummary
	// pairs[a][b] = first site where b was acquired while a was held
	pairs map[string]map[string]token.Pos
	// reported de-duplicates findings across contexts
	reported map[token.Pos]bool
}

func runLockOrder(pp *ProgramPass) {
	st := &lockOrderState{
		pp:       pp,
		sums:     map[*FuncInfo]*lockSummary{},
		pairs:    map[string]map[string]token.Pos{},
		reported: map[token.Pos]bool{},
	}
	// Pass 1: direct summaries.
	for _, fi := range pp.Prog.FuncList {
		st.sums[fi] = st.directSummary(fi)
	}
	// Pass 2: transitive closure over the call graph. Calls inside
	// `go` statements run on another goroutine and do not inherit the
	// caller's held locks, so they are excluded.
	for changed := true; changed; {
		changed = false
		for _, fi := range pp.Prog.FuncList {
			sum := st.sums[fi]
			for _, site := range fi.Calls {
				if site.Target == nil || site.InGo {
					continue
				}
				tsum := st.sums[site.Target]
				for k := range tsum.acquires {
					if !sum.acquires[k] {
						sum.acquires[k] = true
						changed = true
					}
				}
				if tsum.sends && !sum.sends {
					sum.sends, changed = true, true
				}
				if tsum.blocks && !sum.blocks {
					sum.blocks, changed = true, true
				}
			}
		}
	}
	// Pass 3: per-body CFG dataflow, for declared functions and for
	// every function literal as its own context.
	for _, fi := range pp.Prog.FuncList {
		st.analyzeBody(fi.Pkg, fi, fi.CFG(), fi.Vnum())
	}
	for _, pkg := range pp.Prog.Packages {
		for _, f := range pkg.Files {
			pkgf := pkg
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					st.analyzeBody(pkgf, nil, BuildCFG(lit.Body), NewValueNums(pkgf.Info, lit.Body))
				}
				return true
			})
		}
	}
	// Pass 4: cross-direction pair findings, in deterministic order.
	var classes []string
	for a := range st.pairs {
		classes = append(classes, a)
	}
	sort.Strings(classes)
	seen := map[string]bool{}
	for _, a := range classes {
		var succs []string
		for b := range st.pairs[a] {
			succs = append(succs, b)
		}
		sort.Strings(succs)
		for _, b := range succs {
			if seen[a+"|"+b] || seen[b+"|"+a] {
				continue
			}
			if rev, ok := st.pairs[b][a]; ok {
				seen[a+"|"+b] = true
				pp.Reportf(st.pairs[a][b], "inconsistent lock order: %s acquired while holding %s, but the opposite order occurs at %s; pick one global order", b, a, pp.Posf(rev))
				pp.Reportf(rev, "inconsistent lock order: %s acquired while holding %s, but the opposite order occurs at %s; pick one global order", a, b, pp.Posf(st.pairs[a][b]))
			}
		}
	}
}

// directSummary records what a function itself does, not counting
// nested function literals (their execution context is unknown) or
// calls launched on other goroutines.
func (st *lockOrderState) directSummary(fi *FuncInfo) *lockSummary {
	sum := &lockSummary{acquires: map[string]bool{}}
	vn := fi.Vnum()
	inspectNoLit(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if key, op, _, ok := mutexCall(fi.Pkg.Info, vn, n); ok && op == lockAcquire {
				sum.acquires[key] = true
			} else if blockingCall(fi.Pkg.Info, n) {
				sum.blocks = true
			}
		case *ast.SendStmt:
			sum.sends = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				sum.sends = true
			}
		}
		return true
	})
	return sum
}

// blockingCall recognizes calls that block on the outside world:
// time.Sleep and anything in net or net/http.
func blockingCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "time":
		return fn.Name() == "Sleep"
	case "net", "net/http":
		return true
	}
	return false
}

// dynamicCall reports a call of a function-typed value — a callback
// whose body the analyzer cannot see. Static calls, builtins, type
// conversions and method calls all resolve to something else.
func dynamicCall(info *types.Info, call *ast.CallExpr) bool {
	if calleeOf(info, call) != nil {
		return false
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return false // conversion
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, isBuiltin := info.ObjectOf(fun).(*types.Builtin); isBuiltin {
			return false
		}
	case *ast.FuncLit:
		return false // immediately-invoked literal: body is visible in its own context
	}
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	return ok && sig != nil
}

// heldSet is the dataflow fact: lock class → position of the acquire
// that may still be held.
type heldSet map[string]token.Pos

// minHeld picks the lexically smallest held lock class so diagnostic
// text never depends on map iteration order.
func minHeld(h heldSet) string {
	var min string
	for k := range h {
		if min == "" || k < min {
			min = k
		}
	}
	return min
}

func (h heldSet) clone() heldSet {
	c := make(heldSet, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// analyzeBody runs the may-held-locks dataflow over one CFG and
// reports held-across hazards. fi is nil for function literals.
func (st *lockOrderState) analyzeBody(pkg *Package, fi *FuncInfo, cfg *CFG, vn *ValueNums) {
	in := make([]heldSet, len(cfg.Blocks))
	for i := range in {
		in[i] = heldSet{}
	}
	// Fixpoint over may-held sets (merge = union, earliest position
	// wins so messages point at the first acquire).
	for changed := true; changed; {
		changed = false
		for _, b := range cfg.Blocks {
			out := in[b.Index].clone()
			st.transfer(pkg, fi, vn, b, out, nil)
			for _, s := range b.Succs {
				for k, pos := range out {
					if old, ok := in[s.Index][k]; !ok || pos < old {
						in[s.Index][k] = pos
						changed = true
					}
				}
			}
		}
	}
	// Final pass: emit findings with the converged entry states.
	for _, b := range cfg.Blocks {
		held := in[b.Index].clone()
		st.transfer(pkg, fi, vn, b, held, st.report)
	}
}

// report emits one deduplicated finding.
func (st *lockOrderState) report(pos token.Pos, format string, args ...any) {
	if st.reported[pos] {
		return
	}
	st.reported[pos] = true
	st.pp.Reportf(pos, format, args...)
}

// transfer interprets one block's nodes against the held set. When
// emit is non-nil the pass is reporting; order pairs are recorded on
// every pass (the map is idempotent).
func (st *lockOrderState) transfer(pkg *Package, fi *FuncInfo, vn *ValueNums, b *Block, held heldSet, emit func(token.Pos, string, ...any)) {
	for _, node := range b.Nodes {
		switch n := node.(type) {
		case *ast.RangeStmt:
			// Only the range operand is evaluated here; the body is
			// its own set of blocks.
			if n.X != nil {
				st.scanExpr(pkg, fi, vn, n.X, held, emit)
			}
		case *ast.GoStmt:
			// Argument expressions evaluate now; the call runs on
			// another goroutine with an empty held set.
			for _, arg := range n.Call.Args {
				st.scanExpr(pkg, fi, vn, arg, held, emit)
			}
		case *ast.DeferStmt:
			// A deferred Unlock keeps the lock held to function exit,
			// which is exactly how the held-across checks should see
			// it: nothing to do. Other deferred work runs at exit.
			for _, arg := range n.Call.Args {
				st.scanExpr(pkg, fi, vn, arg, held, emit)
			}
		case *ast.SendStmt:
			st.scanExpr(pkg, fi, vn, n.Chan, held, emit)
			st.scanExpr(pkg, fi, vn, n.Value, held, emit)
			if emit != nil {
				if k := minHeld(held); k != "" {
					emit(n.Arrow, "channel send while holding %s: a full channel blocks with the lock held", k)
				}
			}
		default:
			st.scanNode(pkg, fi, vn, node, held, emit)
		}
	}
}

func (st *lockOrderState) scanExpr(pkg *Package, fi *FuncInfo, vn *ValueNums, e ast.Expr, held heldSet, emit func(token.Pos, string, ...any)) {
	st.scanNode(pkg, fi, vn, e, held, emit)
}

// scanNode walks one atomic node in evaluation order, interpreting
// lock operations and hazards. Function literals are skipped: their
// bodies are analyzed as separate contexts.
func (st *lockOrderState) scanNode(pkg *Package, fi *FuncInfo, vn *ValueNums, node ast.Node, held heldSet, emit func(token.Pos, string, ...any)) {
	inspectNoLit(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && emit != nil {
				if k := minHeld(held); k != "" {
					emit(n.OpPos, "channel receive while holding %s: blocks with the lock held if no sender is ready", k)
				}
			}
		case *ast.CallExpr:
			st.call(pkg, fi, vn, n, held, emit)
		}
		return true
	})
}

// call interprets one call expression against the held set.
func (st *lockOrderState) call(pkg *Package, fi *FuncInfo, vn *ValueNums, call *ast.CallExpr, held heldSet, emit func(token.Pos, string, ...any)) {
	if key, op, write, ok := mutexCall(pkg.Info, vn, call); ok {
		switch op {
		case lockAcquire:
			if emit != nil && write {
				if _, re := held[key]; re {
					emit(call.Pos(), "lock class %s acquired while an instance is already held: self-deadlock if it is the same instance", key)
				}
			}
			for h := range held {
				if h == key {
					continue
				}
				if st.pairs[h] == nil {
					st.pairs[h] = map[string]token.Pos{}
				}
				if _, ok := st.pairs[h][key]; !ok {
					st.pairs[h][key] = call.Pos()
				}
			}
			if _, ok := held[key]; !ok {
				held[key] = call.Pos()
			}
		case lockRelease:
			delete(held, key)
		}
		return
	}
	if len(held) == 0 {
		return
	}
	hk := minHeld(held) // one representative held lock for messages
	if emit != nil && dynamicCall(pkg.Info, call) {
		emit(call.Pos(), "callback invoked while holding %s: a callback that blocks or re-enters the lock deadlocks; call it after Unlock", hk)
		return
	}
	if emit != nil && blockingCall(pkg.Info, call) {
		emit(call.Pos(), "blocking I/O while holding %s: the lock is held for the full I/O latency", hk)
		return
	}
	// Static call into the module: import the callee's summary.
	fn := calleeOf(pkg.Info, call)
	target := st.pp.Prog.Funcs[fn]
	if target == nil {
		return
	}
	sum := st.sums[target]
	for a := range sum.acquires {
		if _, same := held[a]; same {
			if emit != nil {
				emit(call.Pos(), "call of %s while holding %s: the callee acquires the same lock class (self-deadlock if it is the same instance)", target.Name(), a)
			}
			continue
		}
		for h := range held {
			if st.pairs[h] == nil {
				st.pairs[h] = map[string]token.Pos{}
			}
			if _, ok := st.pairs[h][a]; !ok {
				st.pairs[h][a] = call.Pos()
			}
		}
	}
	if emit != nil && sum.sends {
		emit(call.Pos(), "call of %s while holding %s: the callee performs channel operations and can block with the lock held", target.Name(), hk)
	} else if emit != nil && sum.blocks {
		emit(call.Pos(), "call of %s while holding %s: the callee performs blocking I/O with the lock held", target.Name(), hk)
	}
}
