package lint

import (
	"go/ast"
	"go/types"
)

// ErrDrop flags silently discarded errors: calls whose error result
// is dropped on the floor (expression statements) and assignments
// that blank an error value. Grid portals live or die on surfacing
// failures before submission; an unchecked parse is a silent zero.
//
// Flagged: calls used as statements whose results include an error,
// and assignments that blank an error value (x, _ := f() with an error
// in the blanked position, or _ = err). Deferred calls are not
// flagged. Writers documented never to fail (or with no better channel
// to report their own failure) are exempt: fmt.Print*, fmt.Fprint* to
// os.Stdout / os.Stderr, and fmt.Fprint* / Write* methods on
// strings.Builder, bytes.Buffer and bufio.Writer (bufio errors are
// sticky and surface at Flush). Use //lint:allow errdrop for justified
// exceptions.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Run:  runErrDrop,
}

func runErrDrop(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDroppedCall(p, call)
				}
			case *ast.AssignStmt:
				checkBlankedError(p, n)
			}
			return true
		})
	}
}

// checkDroppedCall reports a call statement whose results include an
// error the caller never sees.
func checkDroppedCall(p *Pass, call *ast.CallExpr) {
	t := p.TypeOf(call)
	if t == nil || !resultHasError(t) || neverFails(p, call) {
		return
	}
	p.Reportf(call.Pos(), "%s returns an error that is discarded", calleeName(p, call))
}

// checkBlankedError reports blank identifiers absorbing error values:
// both the tuple form (v, _ := f()) and the direct form (_ = err or
// _ = f() with an error result).
func checkBlankedError(p *Pass, as *ast.AssignStmt) {
	// Tuple form: one call on the right, several names on the left.
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || neverFails(p, call) {
			return
		}
		tuple, ok := p.TypeOf(call).(*types.Tuple)
		if !ok || tuple.Len() != len(as.Lhs) {
			return
		}
		for i, lhs := range as.Lhs {
			if isBlank(lhs) && isErrorType(tuple.At(i).Type()) {
				p.Reportf(lhs.Pos(), "error result of %s is assigned to the blank identifier", calleeName(p, call))
			}
		}
		return
	}
	// Direct form: _ = <error-valued expression>, pairwise.
	for i, lhs := range as.Lhs {
		if !isBlank(lhs) || i >= len(as.Rhs) {
			continue
		}
		rt := p.TypeOf(as.Rhs[i])
		if rt == nil {
			continue
		}
		if isErrorType(rt) {
			p.Reportf(lhs.Pos(), "error value is assigned to the blank identifier instead of being handled")
		} else if resultHasError(rt) {
			if call, ok := as.Rhs[i].(*ast.CallExpr); !ok || !neverFails(p, call) {
				p.Reportf(lhs.Pos(), "call result containing an error is assigned to the blank identifier")
			}
		}
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorType)
}

// resultHasError reports whether t is an error or a tuple containing
// one.
func resultHasError(t types.Type) bool {
	if isErrorType(t) {
		return true
	}
	tuple, ok := t.(*types.Tuple)
	if !ok {
		return false
	}
	for i := 0; i < tuple.Len(); i++ {
		if isErrorType(tuple.At(i).Type()) {
			return true
		}
	}
	return false
}

// safeWriters are receiver/argument types whose write methods are
// documented never to return a non-nil error (or, for bufio, to
// surface it at Flush).
var safeWriters = map[string]bool{
	"strings.Builder": true,
	"bytes.Buffer":    true,
	"bufio.Writer":    true,
}

func isSafeWriter(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	} else if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	return safeWriters[obj.Pkg().Name()+"."+obj.Name()]
}

// neverFails exempts calls on the documented-infallible skip list.
func neverFails(p *Pass, call *ast.CallExpr) bool {
	fn := p.Callee(call)
	if fn == nil {
		return false
	}
	sig := fn.Type().(*types.Signature)
	// Write methods on never-failing writers.
	if recv := sig.Recv(); recv != nil {
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune", "ReadFrom":
			return isSafeWriter(recv.Type())
		}
		return false
	}
	if fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return false
	}
	switch fn.Name() {
	case "Print", "Printf", "Println":
		// Writes to process stdout; grid tools have nowhere better to
		// report a stdout failure anyway.
		return true
	case "Fprint", "Fprintf", "Fprintln":
		if len(call.Args) > 0 {
			if isStdStream(p, call.Args[0]) {
				return true
			}
			if t := p.TypeOf(call.Args[0]); t != nil {
				return isSafeWriter(t)
			}
		}
	}
	return false
}

// isStdStream recognizes the os.Stdout / os.Stderr package variables:
// printing to the process's standard streams has no better channel to
// report its own failure on.
func isStdStream(p *Pass, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	v, ok := p.ObjectOf(sel.Sel).(*types.Var)
	if !ok || v.Pkg() == nil || v.Pkg().Path() != "os" {
		return false
	}
	return v.Name() == "Stdout" || v.Name() == "Stderr"
}

func calleeName(p *Pass, call *ast.CallExpr) string {
	if fn := p.Callee(call); fn != nil {
		if fn.Pkg() != nil && fn.Type().(*types.Signature).Recv() == nil {
			return fn.Pkg().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	return "call"
}
