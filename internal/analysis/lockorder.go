package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockOrder flags mutex acquisitions held across blocking channel
// operations or ShardRunner task dispatch in internal/batch,
// internal/obs, and the serving layer (internal/mddserve,
// internal/mddclient, cmd/mddserve). The batch scheduler's revocation
// path, the obs registry, and the serving layer's job records all
// serialize on mutexes; a channel send or receive while one is held
// couples the lock's critical section to goroutine-external progress —
// the classic recipe for the scheduler deadlocks PR 4's chaos tests
// hunt for, and in the serving layer specifically for an HTTP handler
// blocking every publisher of the job it streams. The check is a
// forward dataflow over the CFG: the held-lock set propagates through
// branches and loops (a lock taken on one arm of an if is still held at
// the join on that path), so conditionally held locks are caught too.
// sync.Cond Wait/Broadcast are not channel operations and pass; neither
// is close(), which never blocks. Escape: //lint:lock-ok <reason>.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "flag mutexes held across channel sends/receives or ShardRunner dispatch " +
		"in internal/batch, internal/obs, internal/mddserve, internal/mddclient, " +
		"cmd/mddserve, examples/..., and the module-root integration/stress " +
		"suites (escape: //lint:lock-ok <reason>)",
	TestFiles: true,
	Run:       runLockOrder,
}

func runLockOrder(pass *Pass) error {
	// The module root hosts the integration/stress suites, which juggle
	// the same locks and channels as the serving layer they drive.
	atRoot := normalizePath(pass.Path) == pass.Module.Path
	if !atRoot && !hasPathSegment(pass.Path, "examples") &&
		!pathMatches(pass.Path, "internal/batch", "internal/obs",
			"internal/mddserve", "internal/mddclient", "cmd/mddserve") {
		return nil
	}
	pass.eachFunc(true, func(fd *ast.FuncDecl, _ *types.Func) {
		forward(BuildCFG(fd.Body), lockSet{}, func(b *Block, held lockSet, final bool) {
			transferLockBlock(pass, b, held, final)
		}, func(dst, src lockSet) bool {
			grew := false
			for k := range src {
				if !dst[k] {
					dst[k], grew = true, true
				}
			}
			return grew
		})
	})
	return nil
}

// lockSet is the may-held lock set: a lock held on any incoming path
// counts as held.
type lockSet map[string]bool

func (s lockSet) any() string {
	for k := range s {
		return k
	}
	return ""
}

// transferLockBlock walks one block applying lock effects in statement
// order; on the final pass it reports channel operations and
// ShardRunner dispatch performed while a lock is held.
func transferLockBlock(pass *Pass, b *Block, held lockSet, final bool) {
	report := func(pos token.Pos, what string) {
		if final && len(held) > 0 {
			pass.Reportf(pos, "%s while holding %s; release the lock first or annotate //lint:lock-ok <reason>", what, held.any())
		}
	}
	for _, s := range b.Stmts {
		// channel operations and dispatch are checked against the set
		// held *before* this statement's own lock effects apply
		if send, ok := s.(*ast.SendStmt); ok {
			report(send.Arrow, "channel send")
		}
		if r, ok := s.(*ast.RangeStmt); ok {
			if _, isChan := typeUnder(pass.TypesInfo.TypeOf(r.X)).(*types.Chan); isChan {
				report(r.Pos(), "range over channel")
			}
		}
		for _, e := range stmtExprs(nil, s) {
			scanChanOps(pass, e, report)
		}
		applyLockEffects(pass.TypesInfo, s, held)
	}
	if b.Cond != nil {
		scanChanOps(pass, b.Cond, report)
	}
}

// scanChanOps finds channel receives and ShardRunner dispatch calls
// inside an expression (not descending into function literals, whose
// bodies run on their own goroutine schedule).
func scanChanOps(pass *Pass, e ast.Expr, report func(token.Pos, string)) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(n.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			if fn := calleeFunc(pass.TypesInfo, n); fn != nil && fn.Name() == "Run" && recvNamed(fn) == "ShardRunner" {
				report(n.Pos(), "ShardRunner dispatch")
			}
		}
		return true
	})
}

// recvNamed returns the bare name of a method's receiver type ("" for
// plain functions).
func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	named := namedOf(sig.Recv().Type())
	if named == nil {
		return ""
	}
	return named.Obj().Name()
}

// applyLockEffects updates the held set for a Lock/Unlock call statement.
// Deferred unlocks run at function exit and so do not release within the
// body — which is precisely the `mu.Lock(); defer mu.Unlock(); ch <- v`
// pattern this analyzer exists to flag.
func applyLockEffects(info *types.Info, s ast.Stmt, held lockSet) {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return
	}
	key, op, ok := lockOp(info, call)
	if !ok {
		return
	}
	switch op {
	case "Lock", "RLock":
		held[key] = true
	case "Unlock", "RUnlock":
		delete(held, key)
	}
}

// lockOp recognizes m.Lock / m.RLock / m.Unlock / m.RUnlock calls on
// sync.Mutex / sync.RWMutex values and returns a stable key naming the
// lock expression.
func lockOp(info *types.Info, call *ast.CallExpr) (key, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	t := info.TypeOf(sel.X)
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return "", "", false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
		return types.ExprString(sel.X), sel.Sel.Name, true
	}
	return "", "", false
}
