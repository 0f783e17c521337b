package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CtxFlow requires the coordinator stacks — internal/mddserve,
// internal/mddclient, internal/batch, internal/fault — to stay
// cancellable: every blocking loop, bare channel operation, and
// retry/backoff sleep must either observe cancellation (select on
// ctx.Done(), a ctx.Err() check, a call that passes the context to a
// callee that provably checks it) or be bounded by a deadline (a
// time.After select arm, a clamped backoff duration). A worker loop
// that blocks with no cancellation alternative wedges the whole pool on
// shutdown — exactly the failure the coming worker-process RPC layer
// cannot afford, and one the runtime -race/chaos suites only catch on
// schedules they happen to execute.
//
// The rules, on each function body's CFG (function literals are
// analyzed as their own regions; a go'd closure is where worker loops
// live):
//
//   - a bare channel send/receive outside select blocks with no
//     alternative: it must move into a select with a ctx.Done(),
//     deadline, or default arm (a bare `<-ctx.Done()` receive IS the
//     cancellation wait and passes);
//   - a select with neither default nor a ctx.Done()/deadline arm can
//     block forever;
//   - sync.Cond.Wait cannot observe a context at all — every use needs
//     a reasoned escape documenting the wakeup protocol;
//   - a sleep (time.Sleep, or any func(time.Duration) value whose name
//     ends in "sleep": injected Sleep hooks, backoff helpers) or a call
//     to a module function that may block must not be re-executable
//     around a CFG cycle that passes no cancellation point;
//   - a sleep outside loops must be followed by a context check or have
//     a clamped (`if d > max { d = max }`) duration.
//
// Interprocedural facts come from two bottom-up Summarize fixpoints:
// ChecksCtx (the function has a context parameter and hits a
// cancellation point on every entry→exit path — calling it with your
// ctx is itself a check) and MayBlock (the function contains an
// unmitigated, unescaped blocking operation — calling it inherits the
// block). Range over a channel passes (close-to-cancel hand-off), as do
// sync.WaitGroup.Wait and mutex acquisition (bounded by the joined
// goroutines' own cancellability and by lockorder's discipline).
// Escape: //lint:ctx-ok <reason>.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "require blocking loops, channel operations, and backoff sleeps in " +
		"internal/mddserve, internal/mddclient, internal/batch, and internal/fault " +
		"to be cancellable via ctx.Done()/ctx.Err() or bounded by a deadline " +
		"(escape: //lint:ctx-ok <reason>)",
	Run: runCtxFlow,
}

func ctxflowInScope(path string) bool {
	return pathMatches(path, "internal/mddserve", "internal/mddclient",
		"internal/batch", "internal/fault")
}

func runCtxFlow(pass *Pass) error {
	if pass.TestVariant || !ctxflowInScope(pass.Path) {
		return nil
	}
	checks := ctxChecksFacts(pass.Module)
	mayBlock := ctxMayBlockFacts(pass.Module, pass.IgnoreEscapes)
	g := pass.Module.CallGraph()
	pass.eachFunc(false, func(fd *ast.FuncDecl, fn *types.Func) {
		node := g.Nodes[fn]
		if node == nil {
			return
		}
		for _, body := range declRegions(fd) {
			r := &ctxRegion{info: pass.TypesInfo, node: node, body: body,
				checks: checks, mayBlock: mayBlock}
			r.findings(func(pos token.Pos, msg string) {
				pass.Reportf(pos, "%s or annotate //lint:ctx-ok <reason>", msg)
			})
		}
	})
	return nil
}

// declRegions returns the declaration's body followed by every function
// literal body inside it, each analyzed as its own region.
func declRegions(fd *ast.FuncDecl) []*ast.BlockStmt {
	regions := []*ast.BlockStmt{fd.Body}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			regions = append(regions, lit.Body)
		}
		return true
	})
	return regions
}

// ctxChecksFacts computes (and caches) ChecksCtx: the function takes a
// context.Context and every entry→exit path passes a cancellation
// point. The fact only grows (false→true), so the fixpoint is monotone.
func ctxChecksFacts(m *Module) func(*types.Func) bool {
	facts := m.Cached("ctxflow:checks", func() any {
		g := m.CallGraph()
		eq := func(a, b bool) bool { return a == b }
		return Summarize(g, func(n *FuncNode, get func(*types.Func) bool) bool {
			if !ctxflowInScope(n.Pkg.Path) || !hasCtxParam(n.Fn) {
				return false
			}
			r := &ctxRegion{info: n.Pkg.Info, node: n, body: n.Decl.Body, checks: get}
			cfg := BuildCFG(n.Decl.Body)
			// reaching the exit without passing a cancel block means some
			// path never checks the context
			return !cfg.reach(r.cancelBlocks(cfg), cfg.Entry)[cfg.Exit.Index]
		}, eq)
	}).(map[*types.Func]bool)
	return func(fn *types.Func) bool { return facts[fn] }
}

// ctxMayBlockFacts computes (and caches) MayBlock: the function's own
// body (closures excluded — their blocking belongs to the goroutine or
// caller that runs them) contains an unmitigated blocking operation not
// excused by an escape. ChecksCtx facts are fixed first, so this
// fixpoint is monotone too.
func ctxMayBlockFacts(m *Module, ignoreEscapes bool) func(*types.Func) bool {
	key := "ctxflow:mayblock"
	if ignoreEscapes {
		key = "ctxflow:mayblock:noescape"
	}
	checks := ctxChecksFacts(m)
	facts := m.Cached(key, func() any {
		g := m.CallGraph()
		eq := func(a, b bool) bool { return a == b }
		return Summarize(g, func(n *FuncNode, get func(*types.Func) bool) bool {
			if !ctxflowInScope(n.Pkg.Path) {
				return false
			}
			blocks := false
			r := &ctxRegion{info: n.Pkg.Info, node: n, body: n.Decl.Body,
				checks: checks, mayBlock: get}
			r.findings(func(pos token.Pos, msg string) {
				if ignoreEscapes || !escaped(m.Fset, n.Pkg.Files, "ctxflow", pos) {
					blocks = true
				}
			})
			return blocks
		}, eq)
	}).(map[*types.Func]bool)
	return func(fn *types.Func) bool { return facts[fn] }
}

func hasCtxParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isCtxType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func isCtxType(t types.Type) bool {
	named := namedOf(t)
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

// ctxOpKind classifies one blocking operation.
type ctxOpKind int

const (
	opRecv ctxOpKind = iota
	opSend
	opCondWait
	opSleep
	opMayBlockCall
)

type ctxOp struct {
	kind  ctxOpKind
	pos   token.Pos
	block *Block
	// arg is the sleep's duration expression, for clamp recognition.
	arg ast.Expr
	// callee names the MayBlock module callee, for the message.
	callee *types.Func
}

// ctxRegion analyzes one body region (a declaration body or a function
// literal body; nested literals are skipped — they are regions of their
// own). mayBlock may be nil when only cancellation structure is needed.
type ctxRegion struct {
	info     *types.Info
	node     *FuncNode
	body     *ast.BlockStmt
	checks   func(*types.Func) bool
	mayBlock func(*types.Func) bool
}

// findings runs the region's classification and emits one diagnostic
// per unmitigated blocking operation.
func (r *ctxRegion) findings(emit func(pos token.Pos, msg string)) {
	cfg := BuildCFG(r.body)
	cancel := r.cancelBlocks(cfg)
	ops := r.collectOps(cfg)

	// selects are not block statements; classify them from the AST
	r.walkRegion(func(n ast.Node) {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return
		}
		if !r.selectBlocking(sel) {
			return
		}
		emit(sel.Pos(), "select can block with no ctx.Done(), deadline, or default arm; add a cancellation alternative")
	})

	// looping: control can re-execute op without passing a cancellation
	// point (an op in a cancel block is checked every iteration)
	looping := func(op *ctxOp) bool {
		return !cancel[op.block.Index] && cfg.reach(cancel, op.block.Succs...)[op.block.Index]
	}
	cancelPositions := r.cancelPositions()
	for _, op := range ops {
		if op.block.Dead {
			continue
		}
		switch op.kind {
		case opRecv:
			emit(op.pos, "blocking channel receive is not cancellable; select on ctx.Done() or a deadline alongside it")
		case opSend:
			emit(op.pos, "blocking channel send is not cancellable; select on ctx.Done() or a deadline alongside it")
		case opCondWait:
			emit(op.pos, "sync.Cond.Wait cannot observe context cancellation; document the wakeup protocol")
		case opSleep:
			if looping(op) {
				emit(op.pos, "sleep inside a loop with no cancellation point on the looping path; check ctx.Err() or select on ctx.Done() each iteration")
				continue
			}
			if r.clampedDuration(op.arg) {
				continue
			}
			if !cancelAfter(cancelPositions, op.pos) {
				emit(op.pos, "backoff sleep with no subsequent context check and no clamped duration; check ctx.Err() after sleeping or clamp the delay")
			}
		case opMayBlockCall:
			if looping(op) {
				emit(op.pos, "call to "+funcDisplayName(op.callee)+" (which may block) inside a loop with no cancellation point on the looping path; check ctx.Err() or select on ctx.Done() each iteration")
			}
		}
	}
}

// collectOps scans every live block's statements (and branch
// conditions) for blocking operations. Statements in select.comm
// position belong to their select and are classified there.
func (r *ctxRegion) collectOps(cfg *CFG) []*ctxOp {
	var ops []*ctxOp
	for _, b := range cfg.Blocks {
		for i, s := range b.Stmts {
			comm := b.Kind == "select.comm" && i == 0
			if send, ok := s.(*ast.SendStmt); ok && !comm {
				ops = append(ops, &ctxOp{kind: opSend, pos: send.Arrow, block: b})
			}
			var exprs []ast.Expr
			switch s := s.(type) {
			case *ast.GoStmt:
				// Spawning never blocks the spawner; the goroutine's own
				// body is its own region. Argument evaluation still runs
				// here.
				exprs = s.Call.Args
			case *ast.DeferStmt:
				// The deferred call runs once at function exit, outside
				// any loop; only argument evaluation happens here.
				exprs = s.Call.Args
			default:
				exprs = stmtExprs(nil, s)
			}
			for _, e := range exprs {
				ops = r.scanExprOps(e, b, comm, ops)
			}
		}
		if b.Cond != nil {
			ops = r.scanExprOps(b.Cond, b, false, ops)
		}
	}
	return ops
}

func (r *ctxRegion) scanExprOps(e ast.Expr, b *Block, comm bool, ops []*ctxOp) []*ctxOp {
	ast.Inspect(e, func(n ast.Node) bool {
		if isFuncLit(n) {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !comm && !isDoneOrDeadlineRecv(r.info, n.X) {
				ops = append(ops, &ctxOp{kind: opRecv, pos: n.Pos(), block: b})
			}
		case *ast.CallExpr:
			switch {
			case isCondWait(r.info, n):
				ops = append(ops, &ctxOp{kind: opCondWait, pos: n.Pos(), block: b})
			case isSleepCall(r.info, n):
				ops = append(ops, &ctxOp{kind: opSleep, pos: n.Pos(), block: b, arg: n.Args[0]})
			default:
				if r.mayBlock == nil {
					break
				}
				if callee := r.node.Callees[n]; callee != nil && r.mayBlock(callee.Fn) && !r.ctxCheckedCall(n) {
					ops = append(ops, &ctxOp{kind: opMayBlockCall, pos: n.Pos(), block: b, callee: callee.Fn})
				}
			}
		}
		return true
	})
	return ops
}

// cancelBlocks marks the blocks containing a cancellation point: a
// ctx.Err() call, a ctx.Done() receive, a context-threaded call to a
// ChecksCtx callee, or membership in a select that offers a
// ctx.Done()/deadline arm (taking any arm of such a select means the
// cancellation alternative was on offer).
func (r *ctxRegion) cancelBlocks(cfg *CFG) []bool {
	cancel := make([]bool, len(cfg.Blocks))
	for _, b := range cfg.Blocks {
		for _, s := range b.Stmts {
			for _, e := range stmtExprs(nil, s) {
				if r.exprCancels(e) {
					cancel[b.Index] = true
				}
			}
		}
		if b.Cond != nil && r.exprCancels(b.Cond) {
			cancel[b.Index] = true
		}
	}
	r.walkRegion(func(n ast.Node) {
		sel, ok := n.(*ast.SelectStmt)
		if !ok || !selectHasDoneArm(r.info, sel) {
			return
		}
		for _, c := range sel.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				if blk, _ := cfg.FindStmt(cc.Comm); blk != nil {
					cancel[blk.Index] = true
				}
			} else if len(cc.Body) > 0 {
				if blk, _ := cfg.FindStmt(cc.Body[0]); blk != nil {
					cancel[blk.Index] = true
				}
			}
		}
	})
	return cancel
}

// cancelPositions lists the region's cancellation points in source
// order, for the sleep-then-check rule.
func (r *ctxRegion) cancelPositions() []token.Pos {
	var out []token.Pos
	r.walkRegion(func(n ast.Node) {
		if e, ok := n.(ast.Expr); ok && r.exprCancelsShallow(e) {
			out = append(out, e.Pos())
		}
	})
	return out
}

func cancelAfter(cancels []token.Pos, pos token.Pos) bool {
	for _, c := range cancels {
		if c > pos {
			return true
		}
	}
	return false
}

// walkRegion visits the region's nodes without descending into nested
// function literals.
func (r *ctxRegion) walkRegion(fn func(n ast.Node)) {
	ast.Inspect(r.body, func(n ast.Node) bool {
		if isFuncLit(n) {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// exprCancels reports whether evaluating e (funclits excluded) passes a
// cancellation point.
func (r *ctxRegion) exprCancels(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found || isFuncLit(n) {
			return false
		}
		if sub, ok := n.(ast.Expr); ok && r.exprCancelsShallow(sub) {
			found = true
		}
		return !found
	})
	return found
}

// exprCancelsShallow classifies a single node as a cancellation point.
func (r *ctxRegion) exprCancelsShallow(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.UnaryExpr:
		return e.Op == token.ARROW && isDoneOrDeadlineRecv(r.info, e.X)
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok &&
			sel.Sel.Name == "Err" && isCtxType(r.info.TypeOf(sel.X)) {
			return true
		}
		return r.ctxCheckedCall(e)
	}
	return false
}

// ctxCheckedCall reports whether the call threads a context into a
// module callee that provably checks it.
func (r *ctxRegion) ctxCheckedCall(call *ast.CallExpr) bool {
	if callee := r.node.Callees[call]; callee == nil || !r.checks(callee.Fn) {
		return false
	}
	for _, arg := range call.Args {
		if isCtxType(r.info.TypeOf(arg)) {
			return true
		}
	}
	return false
}

// selectBlocking reports whether a select can block with no
// cancellation alternative: no default and no ctx.Done()/deadline arm.
func (r *ctxRegion) selectBlocking(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		cc := c.(*ast.CommClause)
		if cc.Comm == nil {
			return false // default arm: non-blocking
		}
	}
	return !selectHasDoneArm(r.info, sel)
}

func selectHasDoneArm(info *types.Info, sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		cc := c.(*ast.CommClause)
		if cc.Comm == nil {
			continue
		}
		var recv ast.Expr
		switch s := cc.Comm.(type) {
		case *ast.ExprStmt:
			if ue, ok := ast.Unparen(s.X).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
				recv = ue.X
			}
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 {
				if ue, ok := ast.Unparen(s.Rhs[0]).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
					recv = ue.X
				}
			}
		}
		if recv != nil && isDoneOrDeadlineRecv(info, recv) {
			return true
		}
	}
	return false
}

// isDoneOrDeadlineRecv reports whether receiving from x observes
// cancellation or a deadline: ctx.Done(), time.After(d), or a
// time.Timer/time.Ticker C field.
func isDoneOrDeadlineRecv(info *types.Info, x ast.Expr) bool {
	switch x := ast.Unparen(x).(type) {
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Done" && isCtxType(info.TypeOf(sel.X)) {
				return true
			}
		}
		if fn := calleeFunc(info, x); fn != nil && funcPkgPath(fn) == "time" && fn.Name() == "After" {
			return true
		}
	case *ast.SelectorExpr:
		if x.Sel.Name != "C" {
			return false
		}
		named := namedOf(typeUnder(info.TypeOf(x.X)))
		if named == nil {
			if ptr, ok := typeUnder(info.TypeOf(x.X)).(*types.Pointer); ok {
				named = namedOf(ptr.Elem())
			}
		}
		if named != nil && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "time" {
			switch named.Obj().Name() {
			case "Timer", "Ticker":
				return true
			}
		}
	}
	return false
}

// isSleepCall recognizes time.Sleep and injected sleep hooks: any call
// of a func(time.Duration) value whose name ends in "sleep"
// (opts.Sleep, BackoffSleep, a local `sleep` variable).
func isSleepCall(info *types.Info, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	var name string
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = f.Name
	case *ast.SelectorExpr:
		name = f.Sel.Name
	default:
		return false
	}
	if !strings.HasSuffix(strings.ToLower(name), "sleep") {
		return false
	}
	sig, ok := typeUnder(info.TypeOf(call.Fun)).(*types.Signature)
	if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 0 {
		return false
	}
	named := namedOf(sig.Params().At(0).Type())
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "time" && named.Obj().Name() == "Duration"
}

func isCondWait(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Wait" {
		return false
	}
	t := info.TypeOf(sel.X)
	if ptr, ok := typeUnder(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named := namedOf(t)
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "Cond"
}

// clampedDuration recognizes the bounded-backoff idiom: the sleep's
// duration is an identifier the region clamps beforehand with
// `if d > max { d = ... }` — the wait is deadline-bounded even without
// a context.
func (r *ctxRegion) clampedDuration(arg ast.Expr) bool {
	id, ok := ast.Unparen(arg).(*ast.Ident)
	if !ok {
		return false
	}
	obj := r.info.Uses[id]
	if obj == nil {
		return false
	}
	clamped := false
	r.walkRegion(func(n ast.Node) {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || clamped {
			return
		}
		cond, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
		if !ok || (cond.Op != token.GTR && cond.Op != token.GEQ) {
			return
		}
		x, ok := ast.Unparen(cond.X).(*ast.Ident)
		if !ok || r.info.Uses[x] != obj {
			return
		}
		for _, s := range ifs.Body.List {
			if as, ok := s.(*ast.AssignStmt); ok {
				for _, l := range as.Lhs {
					if isAssignTarget(r.info, l, obj) {
						clamped = true
					}
				}
			}
		}
	})
	return clamped
}
