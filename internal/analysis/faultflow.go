package analysis

import (
	"go/ast"
	"go/types"
)

// FaultFlow guards the fallible API surface PR 4 introduced: errors from
// internal/fault, from the solvers' SolveFallible entry points, and from
// any method named ApplyChecked or ApplyAdjointChecked (guarded by name
// for as long as mdc declares CheckedKernel: bench/ still implements and
// calls the pair, nothing else in the tree does) exist so shard faults
// surface as retryable errors instead of panics — a caller that drops
// one silently reintroduces exactly the failure mode the fault-tolerant
// stack was built to remove. This is a dataflow must-reach check over
// the CFG, not an AST pattern: assigning the error to a variable is not
// enough, the variable must be read (condition, return, handler
// argument, closure capture) on every path out of the function.
// Deliberate drops are annotated //lint:err-ok <reason>.
var FaultFlow = &Analyzer{
	Name: "faultflow",
	Doc: "require errors from internal/fault, SolveFallible, " +
		"InvertResilient, and CheckedKernel calls to reach a check on every path " +
		"(escape: //lint:err-ok <reason>)",
	TestFiles: true,
	Run:       runFaultFlow,
}

func runFaultFlow(pass *Pass) error {
	for _, file := range pass.Files {
		walkStack(file, func(n ast.Node, stack []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if !fallibleCallee(fn) {
				return
			}
			errIdx := errorResultIndex(fn)
			if errIdx < 0 {
				return
			}
			checkErrorConsumed(pass, call, fn, errIdx, stack)
		})
	}
	return nil
}

// fallibleCallee reports whether fn belongs to the guarded surface.
func fallibleCallee(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if pathMatches(funcPkgPath(fn), "internal/fault") {
		return true
	}
	switch fn.Name() {
	case "SolveFallible", "ApplyChecked", "ApplyAdjointChecked", "InvertResilient":
		// InvertResilient is the serving layer's solve entry point: its
		// error is the last fault after restarts are exhausted — dropping
		// it turns an aborted inversion into a silent empty result.
		return true
	}
	return false
}

// errorResultIndex returns the index of the last error-typed result of
// fn's signature, or -1.
func errorResultIndex(fn *types.Func) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return -1
	}
	idx := -1
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			idx = i
		}
	}
	return idx
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// checkErrorConsumed classifies the call site and, when the error lands
// in a local variable, runs the must-reach dataflow from its definition.
func checkErrorConsumed(pass *Pass, call *ast.CallExpr, fn *types.Func, errIdx int, stack []ast.Node) {
	parent := nearestParent(stack)
	label := fn.Name()
	switch p := parent.(type) {
	case *ast.ExprStmt:
		pass.Reportf(call.Pos(), "error from %s is dropped; handle it or annotate //lint:err-ok <reason>", label)

	case *ast.GoStmt:
		if p.Call == call {
			pass.Reportf(call.Pos(), "error from %s is unobservable in a go statement", label)
		}

	case *ast.DeferStmt:
		if p.Call == call {
			pass.Reportf(call.Pos(), "error from deferred %s call is dropped; wrap it in a closure that checks it", label)
		}

	case *ast.AssignStmt:
		lhs := errorLHS(p, call, errIdx)
		if lhs == nil {
			return
		}
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return // stored into a structure: consumed
		}
		if id.Name == "_" {
			pass.Reportf(call.Pos(), "error from %s is discarded as _; handle it or annotate //lint:err-ok <reason>", label)
			return
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			return
		}
		body := enclosingFuncBody(stack)
		if body == nil {
			return
		}
		cfg := BuildCFG(body)
		db, di := cfg.FindStmt(p)
		if db == nil {
			return
		}
		if !mustReachUse(pass.TypesInfo, cfg, db, di, obj) {
			pass.Reportf(call.Pos(), "error from %s assigned to %s does not reach a check on every path", label, id.Name)
		}

	case *ast.ValueSpec:
		// var err = f(): find the matching name
		var id *ast.Ident
		if len(p.Values) == 1 && len(p.Names) > errIdx && callResultCount(fn) == len(p.Names) {
			id = p.Names[errIdx]
		} else if len(p.Values) == len(p.Names) {
			for i, v := range p.Values {
				if ast.Unparen(v) == call {
					id = p.Names[i]
				}
			}
		}
		if id == nil {
			return
		}
		if id.Name == "_" {
			pass.Reportf(call.Pos(), "error from %s is discarded as _; handle it or annotate //lint:err-ok <reason>", label)
			return
		}
		obj := pass.TypesInfo.Defs[id]
		body := enclosingFuncBody(stack)
		if obj == nil || body == nil {
			return // package-level var: consumed elsewhere
		}
		decl := enclosingDeclStmt(stack)
		if decl == nil {
			return
		}
		cfg := BuildCFG(body)
		db, di := cfg.FindStmt(decl)
		if db == nil {
			return
		}
		if !mustReachUse(pass.TypesInfo, cfg, db, di, obj) {
			pass.Reportf(call.Pos(), "error from %s assigned to %s does not reach a check on every path", label, id.Name)
		}

	default:
		// return statement, handler-call argument, comparison, send, ...:
		// the value flows somewhere that observes it
	}
}

// nearestParent returns the closest ancestor that is not a ParenExpr.
func nearestParent(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			continue
		}
		return stack[i]
	}
	return nil
}

func enclosingDeclStmt(stack []ast.Node) ast.Stmt {
	for i := len(stack) - 1; i >= 0; i-- {
		if d, ok := stack[i].(*ast.DeclStmt); ok {
			return d
		}
	}
	return nil
}

// errorLHS returns the assignment target receiving the call's error
// result, or nil when the site is not a recognized form.
func errorLHS(a *ast.AssignStmt, call *ast.CallExpr, errIdx int) ast.Expr {
	if len(a.Rhs) == 1 && ast.Unparen(a.Rhs[0]) == call {
		// tuple assignment v, err := f()
		if len(a.Lhs) > errIdx {
			return a.Lhs[errIdx]
		}
		return nil
	}
	for i, r := range a.Rhs {
		if ast.Unparen(r) == call && i < len(a.Lhs) {
			return a.Lhs[i]
		}
	}
	return nil
}

func callResultCount(fn *types.Func) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return 0
	}
	return sig.Results().Len()
}
