package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ReqTaint guards the serving layer against request-sized allocations.
// Values decoded from HTTP request JSON (json.Decoder.Decode /
// json.Unmarshal targets) and integers parsed from request queries
// (strconv.Atoi/Parse* inside a function taking *http.Request) are
// tainted. A tainted value may not reach a sink — a make size/cap
// argument, a slice-expression bound, a loop bound, or a parameter
// another serving-layer function feeds into such a sink — until an
// intervening check marks it trusted: an if/switch condition mentioning
// the value, or a call to a function that compares the corresponding
// parameter (Validate/validateSize-style admission checks, discovered
// transitively via call-graph summaries).
//
// The analysis is a forward dataflow on the CFG with a three-point
// lattice per variable (clean < checked < tainted, join = max, so a
// value unchecked on ANY incoming path stays tainted). Tracking is at
// whole-variable granularity: a struct decoded from a request taints
// the variable, and a condition on any of its fields counts as the
// check. Scope: internal/mddserve, non-test files — the one package
// that parses untrusted bytes. The module-internal flow boundary is the
// package: specs must be admission-checked before leaving the handler
// layer, which is exactly what the summaries enforce.
// Escape: //lint:taint-ok <reason> on the sink's line.
var ReqTaint = &Analyzer{
	Name: "reqtaint",
	Doc: "forbid HTTP-request-decoded values in internal/mddserve from sizing " +
		"allocations, bounding loops, or slicing without an intervening bounds " +
		"check (escape: //lint:taint-ok <reason>)",
	Run: runReqTaint,
}

type taintLevel int

const (
	taintClean taintLevel = iota
	taintChecked
	taintTainted
)

type taintState map[types.Object]taintLevel

// taintFact is one function's interprocedural summary. Index 0 is the
// receiver for methods; parameters follow in order.
type taintFact struct {
	// SinkParams[i]: a tainted argument in position i reaches a sizing
	// sink inside the callee without a check.
	SinkParams []bool
	// ValidatedParams[i]: the callee compares parameter i (or one of its
	// fields) in a branch condition — calling it checks the argument.
	ValidatedParams []bool
}

func taintFactsEqual(a, b *taintFact) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.SinkParams) != len(b.SinkParams) {
		return false
	}
	for i := range a.SinkParams {
		if a.SinkParams[i] != b.SinkParams[i] || a.ValidatedParams[i] != b.ValidatedParams[i] {
			return false
		}
	}
	return true
}

func runReqTaint(pass *Pass) error {
	if pass.TestVariant || !pathMatches(pass.Path, "internal/mddserve") {
		return nil
	}
	sums := reqtaintSummaries(pass.Module, pass.IgnoreEscapes)
	g := pass.Module.CallGraph()
	pass.eachFunc(false, func(fd *ast.FuncDecl, fn *types.Func) {
		node := g.Nodes[fn]
		if node == nil {
			return
		}
		newTaintFunc(node, sums).analyze(nil, func(pos token.Pos, what string, obj types.Object) {
			pass.Reportf(pos, "request-tainted %s flows into %s without an intervening bounds check; compare it against a limit first or annotate //lint:taint-ok <reason>", obj.Name(), what)
		})
	})
	return nil
}

// reqtaintSummaries computes (and caches) the sink/validator summaries
// of every serving-layer function, bottom-up over the call graph.
func reqtaintSummaries(m *Module, ignoreEscapes bool) func(*types.Func) *taintFact {
	key := "reqtaint:sums"
	if ignoreEscapes {
		key = "reqtaint:sums:noescape"
	}
	facts := m.Cached(key, func() any {
		g := m.CallGraph()
		return Summarize(g, func(n *FuncNode, get func(*types.Func) *taintFact) *taintFact {
			if !pathMatches(n.Pkg.Path, "internal/mddserve") {
				return nil
			}
			params := declParamObjects(n)
			if len(params) == 0 {
				return nil
			}
			fact := &taintFact{
				SinkParams:      make([]bool, len(params)),
				ValidatedParams: make([]bool, len(params)),
			}
			for i, p := range params {
				if p == nil {
					continue
				}
				fact.ValidatedParams[i] = paramValidated(n, p, get)
				newTaintFunc(n, get).analyze([]types.Object{p}, func(pos token.Pos, what string, obj types.Object) {
					if ignoreEscapes || !escaped(m.Fset, n.Pkg.Files, "reqtaint", pos) {
						fact.SinkParams[i] = true
					}
				})
			}
			return fact
		}, taintFactsEqual)
	}).(map[*types.Func]*taintFact)
	return func(fn *types.Func) *taintFact { return facts[fn] }
}

// declParamObjects lists the receiver (methods) and parameter objects of
// a declaration, nil for unnamed/blank entries.
func declParamObjects(n *FuncNode) []types.Object {
	var out []types.Object
	addField := func(f *ast.Field) {
		if len(f.Names) == 0 {
			out = append(out, nil)
			return
		}
		for _, nm := range f.Names {
			if nm.Name == "_" {
				out = append(out, nil)
				continue
			}
			out = append(out, n.Pkg.Info.Defs[nm])
		}
	}
	if n.Decl.Recv != nil {
		for _, f := range n.Decl.Recv.List {
			addField(f)
		}
	}
	if n.Decl.Type.Params != nil {
		for _, f := range n.Decl.Type.Params.List {
			addField(f)
		}
	}
	return out
}

// paramValidated reports whether the function's body compares p in a
// branch condition or passes it to a callee that validates the
// corresponding parameter.
func paramValidated(n *FuncNode, p types.Object, get func(*types.Func) *taintFact) bool {
	info := n.Pkg.Info
	validated := false
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		if validated {
			return false
		}
		switch s := nd.(type) {
		case *ast.IfStmt:
			if exprUses(info, s.Cond, p) {
				validated = true
			}
		case *ast.SwitchStmt:
			if s.Tag != nil && exprUses(info, s.Tag, p) {
				validated = true
			}
		case *ast.CallExpr:
			callee := n.Callees[s]
			if callee == nil {
				return true
			}
			fact := get(callee.Fn)
			if fact == nil {
				return true
			}
			for j, arg := range callArgsWithRecv(callee.Fn, s) {
				if j < len(fact.ValidatedParams) && fact.ValidatedParams[j] && exprUses(info, arg, p) {
					validated = true
				}
			}
		}
		return !validated
	})
	return validated
}

// callArgsWithRecv aligns a call's argument expressions with the
// callee's parameter indexing (receiver first for method calls).
func callArgsWithRecv(callee *types.Func, call *ast.CallExpr) []ast.Expr {
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return call.Args
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return append([]ast.Expr{sel.X}, call.Args...)
	}
	return call.Args
}

// taintFunc runs the per-function forward dataflow.
type taintFunc struct {
	info        *types.Info
	node        *FuncNode
	sums        func(*types.Func) *taintFact
	hasReqParam bool
}

type taintEmit func(pos token.Pos, what string, obj types.Object)

func newTaintFunc(node *FuncNode, sums func(*types.Func) *taintFact) *taintFunc {
	return &taintFunc{
		info: node.Pkg.Info, node: node, sums: sums,
		hasReqParam: hasRequestParam(node.Fn),
	}
}

func hasRequestParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if named := namedOf(sig.Params().At(i).Type()); named != nil &&
			named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "net/http" &&
			named.Obj().Name() == "Request" {
			return true
		}
	}
	return false
}

// analyze seeds the entry state (tainted params in summary mode, nothing
// in reporting mode — roots are discovered at decode/parse sites), runs
// the forward solver, and emits sink hits on its final pass. The join is
// per-object max: a value unchecked on any incoming path stays tainted.
func (t *taintFunc) analyze(seeds []types.Object, emit taintEmit) {
	entry := taintState{}
	for _, o := range seeds {
		entry[o] = taintTainted
	}
	forward(BuildCFG(t.node.Decl.Body), entry, func(b *Block, st taintState, final bool) {
		if final {
			t.transferBlock(b, st, emit)
		} else {
			t.transferBlock(b, st, nil)
		}
	}, func(dst, src taintState) bool {
		grew := false
		for k, v := range src {
			if dst[k] < v {
				dst[k], grew = v, true
			}
		}
		return grew
	})
}

func (t *taintFunc) transferBlock(b *Block, st taintState, emit taintEmit) {
	for _, s := range b.Stmts {
		if emit != nil {
			t.scanStmtSinks(s, st, emit)
		}
		t.applyStmt(s, st)
	}
	if b.Cond != nil {
		if b.Kind == "for.head" {
			// the loop bound is the sink, not a guard: `for i < n` with a
			// request-sized n IS the attack
			if emit != nil {
				if obj := taintedObjIn(t.info, b.Cond, st); obj != nil {
					emit(b.Cond.Pos(), "a loop bound", obj)
				}
			}
		} else {
			// if/switch condition mentioning a tainted value is the check;
			// both branches continue with it marked trusted
			for obj, lvl := range st {
				if lvl == taintTainted && exprUses(t.info, b.Cond, obj) {
					st[obj] = taintChecked
				}
			}
		}
	}
}

// scanStmtSinks finds sinks evaluated by one statement against the
// state before its own effects apply.
func (t *taintFunc) scanStmtSinks(s ast.Stmt, st taintState, emit taintEmit) {
	if r, ok := s.(*ast.RangeStmt); ok {
		// `for range n` over a tainted integer is a loop bound
		if bt, ok := typeUnder(t.info.TypeOf(r.X)).(*types.Basic); ok && bt.Info()&types.IsInteger != 0 {
			if obj := taintedObjIn(t.info, r.X, st); obj != nil {
				emit(r.X.Pos(), "a loop bound", obj)
			}
		}
	}
	for _, e := range stmtExprs(nil, s) {
		t.scanExprSinks(e, st, emit)
	}
}

func (t *taintFunc) scanExprSinks(e ast.Expr, st taintState, emit taintEmit) {
	ast.Inspect(e, func(n ast.Node) bool {
		if isFuncLit(n) {
			return false
		}
		switch n := n.(type) {
		case *ast.SliceExpr:
			for _, bound := range []ast.Expr{n.Low, n.High, n.Max} {
				if bound == nil {
					continue
				}
				if obj := taintedObjIn(t.info, bound, st); obj != nil {
					emit(bound.Pos(), "a slice bound", obj)
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if bi, ok := t.info.Uses[id].(*types.Builtin); ok && bi.Name() == "make" {
					for _, sz := range n.Args[1:] {
						if obj := taintedObjIn(t.info, sz, st); obj != nil {
							emit(sz.Pos(), "a make size", obj)
						}
					}
					return true
				}
			}
			callee := t.node.Callees[n]
			if callee == nil {
				return true
			}
			fact := t.sums(callee.Fn)
			if fact == nil {
				return true
			}
			for j, arg := range callArgsWithRecv(callee.Fn, n) {
				if j < len(fact.SinkParams) && fact.SinkParams[j] {
					if obj := taintedObjIn(t.info, arg, st); obj != nil {
						emit(arg.Pos(), "an allocation-sizing parameter of "+funcDisplayName(callee.Fn), obj)
					}
				}
			}
		}
		return true
	})
}

// taintedObjIn returns the lexicographically-first tainted object used
// in e, nil when every mentioned value is clean or checked.
func taintedObjIn(info *types.Info, e ast.Expr, st taintState) types.Object {
	var best types.Object
	for obj, lvl := range st {
		if lvl != taintTainted || (best != nil && obj.Name() >= best.Name()) {
			continue
		}
		if exprUses(info, e, obj) {
			best = obj
		}
	}
	return best
}

// applyStmt updates the state with one statement's effects: taint roots
// (decode/parse), assignment propagation, and validator-call upgrades.
func (t *taintFunc) applyStmt(s ast.Stmt, st taintState) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) == len(s.Rhs) {
			for i, l := range s.Lhs {
				lvl := t.exprLevel(s.Rhs[i], st)
				if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
					lvl = max(lvl, t.exprLevel(l, st)) // compound op keeps the old value's level
				}
				setTaint(t.info, l, lvl, st)
			}
		} else if len(s.Rhs) == 1 {
			lvl := t.exprLevel(s.Rhs[0], st)
			for _, l := range s.Lhs {
				setTaint(t.info, l, lvl, st)
			}
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, nm := range vs.Names {
					lvl := taintClean
					if i < len(vs.Values) {
						lvl = t.exprLevel(vs.Values[i], st)
					} else if len(vs.Values) == 1 {
						lvl = t.exprLevel(vs.Values[0], st)
					}
					if obj := t.info.Defs[nm]; obj != nil {
						st[obj] = lvl
					}
				}
			}
		}
	case *ast.RangeStmt:
		// loop bindings are indices/elements, not sizes; fresh and clean
		for _, l := range []ast.Expr{s.Key, s.Value} {
			if l != nil {
				setTaint(t.info, l, taintClean, st)
			}
		}
	}
	// roots and validator upgrades anywhere in the statement
	for _, e := range stmtExprs(nil, s) {
		ast.Inspect(e, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, obj := range jsonDecodeTargets(t.info, call) {
				st[obj] = taintTainted
			}
			t.applyValidatorCall(call, st)
			return true
		})
	}
}

// applyValidatorCall upgrades tainted arguments passed to a validating
// parameter position of a serving-layer callee.
func (t *taintFunc) applyValidatorCall(call *ast.CallExpr, st taintState) {
	callee := t.node.Callees[call]
	if callee == nil {
		return
	}
	fact := t.sums(callee.Fn)
	if fact == nil {
		return
	}
	for j, arg := range callArgsWithRecv(callee.Fn, call) {
		if j >= len(fact.ValidatedParams) || !fact.ValidatedParams[j] {
			continue
		}
		for obj, lvl := range st {
			if lvl == taintTainted && exprUses(t.info, arg, obj) {
				st[obj] = taintChecked
			}
		}
	}
}

// exprLevel computes the taint level an expression's value carries: the
// max over mentioned variables, forced to tainted for strconv parses of
// request-derived strings (any parse inside a *http.Request-taking
// function counts — the serving handlers parse nothing else).
func (t *taintFunc) exprLevel(e ast.Expr, st taintState) taintLevel {
	lvl := taintClean
	ast.Inspect(e, func(n ast.Node) bool {
		if isFuncLit(n) {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if obj := t.info.Uses[n]; obj != nil && st[obj] > lvl {
				lvl = st[obj]
			}
		case *ast.CallExpr:
			if t.hasReqParam && isStrconvParse(t.info, n) {
				lvl = taintTainted
			}
		}
		return lvl != taintTainted
	})
	return lvl
}

// setTaint records the level for a plain-ident assignment target;
// field/index stores are out of this analysis's granularity.
func setTaint(info *types.Info, l ast.Expr, lvl taintLevel, st taintState) {
	id, ok := ast.Unparen(l).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	if obj == nil {
		return
	}
	if lvl == taintClean {
		delete(st, obj)
		return
	}
	st[obj] = lvl
}

// jsonDecodeTargets returns the &ident objects a json Decode/Unmarshal
// call fills from request bytes.
func jsonDecodeTargets(info *types.Info, call *ast.CallExpr) []types.Object {
	fn := calleeFunc(info, call)
	if fn == nil || funcPkgPath(fn) != "encoding/json" {
		return nil
	}
	var target ast.Expr
	switch fn.Name() {
	case "Decode":
		if len(call.Args) == 1 {
			target = call.Args[0]
		}
	case "Unmarshal":
		if len(call.Args) == 2 {
			target = call.Args[1]
		}
	}
	if target == nil {
		return nil
	}
	u, ok := ast.Unparen(target).(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return nil
	}
	id, ok := ast.Unparen(u.X).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return []types.Object{obj}
	}
	return nil
}

func isStrconvParse(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || funcPkgPath(fn) != "strconv" {
		return false
	}
	switch fn.Name() {
	case "Atoi", "ParseInt", "ParseUint", "ParseFloat":
		return true
	}
	return false
}
