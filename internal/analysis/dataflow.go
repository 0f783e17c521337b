package analysis

import (
	"go/ast"
	"go/types"
	"maps"
)

// Statement-granular expression access for CFG blocks. Blocks hold flat
// statements (plus RangeStmt loop heads), so these helpers enumerate the
// expressions a statement evaluates without descending into nested
// bodies — the nested code lives in its own blocks.

// stmtExprs appends every expression s evaluates to dst and returns it.
// For assignments both sides are included; assignment-target idents are
// distinguished by the reads/kills helpers below, not here.
func stmtExprs(dst []ast.Expr, s ast.Stmt) []ast.Expr {
	switch s := s.(type) {
	case *ast.AssignStmt:
		dst = append(dst, s.Rhs...)
		dst = append(dst, s.Lhs...)
	case *ast.ExprStmt:
		dst = append(dst, s.X)
	case *ast.SendStmt:
		dst = append(dst, s.Chan, s.Value)
	case *ast.IncDecStmt:
		dst = append(dst, s.X)
	case *ast.ReturnStmt:
		dst = append(dst, s.Results...)
	case *ast.DeferStmt:
		dst = append(dst, s.Call)
	case *ast.GoStmt:
		dst = append(dst, s.Call)
	case *ast.RangeStmt:
		dst = append(dst, s.X)
		if s.Key != nil {
			dst = append(dst, s.Key)
		}
		if s.Value != nil {
			dst = append(dst, s.Value)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					dst = append(dst, vs.Values...)
				}
			}
		}
	}
	return dst
}

// forward solves a forward may-analysis over cfg. The state entering a
// block is the join of the states its predecessors leave with, starting
// from entry at the entry block; blocks no path reaches keep a nil
// state. transfer applies one block to a copy of its entering state, in
// place; join merges src into dst and reports whether dst grew. Once
// nothing grows, every reached block is transferred once more with
// final set: the pass on which analyzers report.
func forward[M ~map[K]V, K comparable, V any](cfg *CFG, entry M, transfer func(b *Block, st M, final bool), join func(dst, src M) bool) {
	in := make([]M, len(cfg.Blocks))
	in[cfg.Entry.Index] = entry
	for changed := true; changed; {
		changed = false
		for _, b := range cfg.Blocks {
			if in[b.Index] == nil {
				continue
			}
			out := maps.Clone(in[b.Index])
			transfer(b, out, false)
			for _, s := range b.Succs {
				if in[s.Index] == nil {
					in[s.Index], changed = M{}, true
				}
				if join(in[s.Index], out) {
					changed = true
				}
			}
		}
	}
	for _, b := range cfg.Blocks {
		if in[b.Index] != nil {
			transfer(b, maps.Clone(in[b.Index]), true)
		}
	}
}

// exprUses reports whether obj is referenced anywhere inside e,
// including inside function-literal bodies (a closure capturing the
// object may read it later, which counts as a use).
func exprUses(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// isAssignTarget reports whether l is a plain ident naming obj — the
// only LHS form that overwrites the variable rather than reading it
// (a[i] = x and s.f = x read a and s).
func isAssignTarget(info *types.Info, l ast.Expr, obj types.Object) bool {
	id, ok := l.(*ast.Ident)
	if !ok {
		return false
	}
	return info.Uses[id] == obj || info.Defs[id] == obj
}

// stmtReads reports whether executing s reads obj. Plain reassignment
// targets do not count; everything else (RHS mention, index/selector
// base on the LHS, closure capture) does.
func stmtReads(info *types.Info, s ast.Stmt, obj types.Object) bool {
	a, ok := s.(*ast.AssignStmt)
	if !ok {
		for _, e := range stmtExprs(nil, s) {
			if exprUses(info, e, obj) {
				return true
			}
		}
		return false
	}
	for _, r := range a.Rhs {
		if exprUses(info, r, obj) {
			return true
		}
	}
	for _, l := range a.Lhs {
		if isAssignTarget(info, l, obj) {
			continue
		}
		if exprUses(info, l, obj) {
			return true
		}
	}
	return false
}

// stmtKills reports whether s overwrites obj (a plain `obj = ...`
// assignment) without reading it first; the old value is lost.
func stmtKills(info *types.Info, s ast.Stmt, obj types.Object) bool {
	a, ok := s.(*ast.AssignStmt)
	if !ok {
		return false
	}
	killed := false
	for _, l := range a.Lhs {
		if isAssignTarget(info, l, obj) {
			killed = true
		}
	}
	return killed && !stmtReads(info, s, obj)
}

// mustReachUse reports whether, starting just after the definition of
// obj at (defBlock, defIdx), every execution path reads obj before
// overwriting it or leaving the function. Deferred calls referencing the
// object count as a use at exit (the common `defer func() { ... err ... }`
// recovery idiom). This is the faultflow core: a "false" means at least
// one path drops the value.
func mustReachUse(info *types.Info, cfg *CFG, defBlock *Block, defIdx int, obj types.Object) bool {
	deferReads := false
	for _, d := range cfg.Defers {
		if exprUses(info, d.Call, obj) {
			deferReads = true
			break
		}
	}
	type item struct {
		b     *Block
		start int
	}
	visited := map[*Block]bool{}
	stack := []item{{defBlock, defIdx + 1}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		used := false
		for i := it.start; i < len(it.b.Stmts); i++ {
			s := it.b.Stmts[i]
			if stmtReads(info, s, obj) {
				used = true
				break
			}
			if stmtKills(info, s, obj) {
				return false // overwritten before any read
			}
		}
		if used {
			continue
		}
		if it.b.Cond != nil && exprUses(info, it.b.Cond, obj) {
			continue
		}
		if it.b == cfg.Exit {
			if deferReads {
				continue
			}
			return false // reached function exit without a read
		}
		if len(it.b.Succs) == 0 {
			continue // dead end (infinite loop or empty select)
		}
		for _, s := range it.b.Succs {
			if !visited[s] {
				visited[s] = true
				stack = append(stack, item{s, 0})
			}
		}
	}
	return true
}
