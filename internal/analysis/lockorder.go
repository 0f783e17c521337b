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
	for _, file := range pass.Files {
		okLines := pass.markerLines(file, "lock-ok")
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkLockOrder(pass, fn, okLines)
		}
	}
	return nil
}

type lockSet map[string]bool

func (s lockSet) clone() lockSet {
	out := make(lockSet, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func (s lockSet) equal(o lockSet) bool {
	if len(s) != len(o) {
		return false
	}
	for k := range s {
		if !o[k] {
			return false
		}
	}
	return true
}

func (s lockSet) any() string {
	for k := range s {
		return k
	}
	return ""
}

func checkLockOrder(pass *Pass, fn *ast.FuncDecl, okLines map[int]bool) {
	cfg := BuildCFG(fn.Body)
	in := lockFixpoint(pass.TypesInfo, cfg)
	reported := map[token.Pos]bool{}
	for _, b := range cfg.Blocks {
		if in[b.Index] == nil {
			continue
		}
		transferLockBlock(pass, b, in[b.Index].clone(), okLines, reported)
	}
}

// lockFixpoint computes the may-held lock set entering each block: a
// forward fixpoint where in[b] is the union of predecessors' outs (a
// lock held on any incoming path counts as held). Entry blocks of
// unreachable regions stay nil.
func lockFixpoint(info *types.Info, cfg *CFG) []lockSet {
	in := make([]lockSet, len(cfg.Blocks))
	in[cfg.Entry.Index] = lockSet{}
	changed := true
	for changed {
		changed = false
		for _, b := range cfg.Blocks {
			if in[b.Index] == nil {
				continue
			}
			out := in[b.Index].clone()
			for _, s := range b.Stmts {
				applyLockEffects(info, s, out)
			}
			for _, succ := range b.Succs {
				merged := in[succ.Index]
				if merged == nil {
					merged = lockSet{}
					in[succ.Index] = merged
					changed = true
				}
				for k := range out {
					if !merged[k] {
						merged[k] = true
						changed = true
					}
				}
			}
		}
	}
	return in
}

// transferLockBlock walks one block applying lock effects in statement
// order; when report state is non-nil it emits diagnostics for channel
// operations and ShardRunner dispatch performed while a lock is held.
func transferLockBlock(pass *Pass, b *Block, held lockSet, okLines map[int]bool, reported map[token.Pos]bool) lockSet {
	report := func(pos token.Pos, what string) {
		if reported == nil || len(held) == 0 {
			return
		}
		if reported[pos] || okLines[pass.Fset.Position(pos).Line] {
			return
		}
		reported[pos] = true
		pass.Reportf(pos, "%s while holding %s; release the lock first or annotate //lint:lock-ok <reason>", what, held.any())
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
	return held
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
