package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the interprocedural half of the analyzer suite: an
// intra-module call graph built over go/types. Every function or method
// declared with a body anywhere in the module becomes a node; each node
// records its call sites classified as module-internal (resolved to
// another node), external (a stdlib *types.Func), or dynamic (a call
// through a function value, or an interface method the devirtualizer
// could not pin down). Calls inside function literals are attributed to
// the enclosing declaration: for summary purposes a closure's body is
// code the declaring function may run.
//
// Interface method calls are devirtualized only when the concrete type
// is locally evident — the receiver is a local variable with exactly one
// assignment whose right-hand side has a concrete type. Everything else
// stays Dynamic, and the analyzers built on the graph (reqtaint,
// ctxflow) treat Dynamic as "cannot prove".

// CallSite is one call expression inside a function body, classified by
// how its target resolved.
type CallSite struct {
	// Call is the call expression (positions point into the module fset).
	Call *ast.CallExpr
	// Callee is the module-internal target, nil otherwise.
	Callee *FuncNode
	// External is the resolved non-module target (standard library),
	// nil when the callee is module-internal or unresolved.
	External *types.Func
	// Dynamic marks calls whose target cannot be resolved statically.
	Dynamic bool
}

// FuncNode is one declared function or method in the module.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls lists every call site in the body (closures included), in
	// source order.
	Calls []CallSite

	siteByCall map[*ast.CallExpr]*CallSite
}

// Site returns the classified call site for a call expression inside
// this node's body, or nil for conversions/builtins.
func (n *FuncNode) Site(call *ast.CallExpr) *CallSite {
	return n.siteByCall[call]
}

// CallGraph indexes the module's declared functions and their calls.
type CallGraph struct {
	Nodes map[*types.Func]*FuncNode
}

// SortedNodes returns the nodes in (package path, declaration position)
// order, the iteration order every fixpoint uses for determinism.
func (g *CallGraph) SortedNodes() []*FuncNode {
	nodes := make([]*FuncNode, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].Pkg.Path != nodes[j].Pkg.Path {
			return nodes[i].Pkg.Path < nodes[j].Pkg.Path
		}
		return nodes[i].Decl.Pos() < nodes[j].Decl.Pos()
	})
	return nodes
}

// CallGraph returns the module's call graph, building it on first use.
func (m *Module) CallGraph() *CallGraph {
	return m.Cached("callgraph", func() any {
		callGraphBuilds++
		return buildCallGraph(m)
	}).(*CallGraph)
}

func buildCallGraph(m *Module) *CallGraph {
	g := &CallGraph{Nodes: map[*types.Func]*FuncNode{}}
	// Register every declaration first so call sites resolve to nodes
	// regardless of package order, then classify the calls.
	for _, pkg := range m.SortedPackages() {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.Nodes[fn] = &FuncNode{Fn: fn, Decl: fd, Pkg: pkg}
			}
		}
	}
	for _, node := range g.SortedNodes() {
		collectCalls(g, node)
	}
	return g
}

func collectCalls(g *CallGraph, n *FuncNode) {
	n.siteByCall = map[*ast.CallExpr]*CallSite{}
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		if site, real := resolveCall(g, n, call); real {
			n.Calls = append(n.Calls, site)
		}
		return true
	})
	// index after the appends settle (append may move the backing array)
	for i := range n.Calls {
		n.siteByCall[n.Calls[i].Call] = &n.Calls[i]
	}
}

// resolveCall classifies one call expression. The bool result is false
// for non-calls: type conversions and builtin invocations.
func resolveCall(g *CallGraph, n *FuncNode, call *ast.CallExpr) (CallSite, bool) {
	info := n.Pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return CallSite{}, false // conversion, not a call
	}
	fun := ast.Unparen(call.Fun)
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		// computed function value: fs[i](), returned closure, ...
		return CallSite{Call: call, Dynamic: true}, true
	}
	switch obj := info.Uses[id].(type) {
	case *types.Builtin:
		return CallSite{}, false
	case *types.Func:
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil &&
			types.IsInterface(sig.Recv().Type()) {
			sel, ok := fun.(*ast.SelectorExpr)
			if !ok {
				return CallSite{Call: call, Dynamic: true}, true
			}
			if m := devirtualize(n, sel, obj); m != nil {
				if node := g.Nodes[m]; node != nil {
					return CallSite{Call: call, Callee: node}, true
				}
				return CallSite{Call: call, External: m}, true
			}
			return CallSite{Call: call, Dynamic: true}, true
		}
		if node := g.Nodes[obj]; node != nil {
			return CallSite{Call: call, Callee: node}, true
		}
		return CallSite{Call: call, External: obj}, true
	default:
		// function-typed variable, method value, unresolved ident
		return CallSite{Call: call, Dynamic: true}, true
	}
}

// devirtualize resolves an interface method call to a concrete method
// when the target is locally evident: the receiver is a local variable
// written exactly once in the enclosing declaration, with a concrete
// right-hand side. Address-taken receivers, range bindings, and
// multi-assignments all bail to Dynamic — the safe direction.
func devirtualize(n *FuncNode, sel *ast.SelectorExpr, ifaceMethod *types.Func) *types.Func {
	info := n.Pkg.Info
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	obj, isVar := info.Uses[id].(*types.Var)
	if !isVar || obj.Parent() == nil || obj.Parent() == obj.Pkg().Scope() {
		return nil // package-level vars can be written from anywhere
	}
	var rhs ast.Expr
	writes := 0
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		switch s := nd.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				for _, l := range s.Lhs {
					if isAssignTarget(info, l, obj) {
						writes += 2 // multi-value: no single evident RHS
					}
				}
				return true
			}
			for i, l := range s.Lhs {
				if isAssignTarget(info, l, obj) {
					writes++
					rhs = s.Rhs[i]
				}
			}
		case *ast.ValueSpec:
			for i, nm := range s.Names {
				if info.Defs[nm] != obj {
					continue
				}
				writes++
				if i < len(s.Values) {
					rhs = s.Values[i]
				} else {
					writes++ // `var x Iface` zero value: nothing evident
				}
			}
		case *ast.RangeStmt:
			if (s.Key != nil && isAssignTarget(info, s.Key, obj)) ||
				(s.Value != nil && isAssignTarget(info, s.Value, obj)) {
				writes += 2 // per-iteration rebinding
			}
		case *ast.UnaryExpr:
			if s.Op == token.AND {
				if x, ok := ast.Unparen(s.X).(*ast.Ident); ok && info.Uses[x] == obj {
					writes += 2 // address taken: writable through the pointer
				}
			}
		}
		return true
	})
	if writes != 1 || rhs == nil {
		return nil
	}
	t := info.TypeOf(rhs)
	if t == nil || types.IsInterface(t) {
		return nil
	}
	m, _, _ := types.LookupFieldOrMethod(t, true, n.Pkg.Types, ifaceMethod.Name())
	fn, _ := m.(*types.Func)
	return fn
}

// fileOf returns the package file whose range contains pos, or nil.
func fileOf(pkg *Package, pos token.Pos) *ast.File {
	for _, f := range pkg.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// funcDisplayName renders a node's function as "pkg.Name" or
// "pkg.Recv.Name" for diagnostics.
func funcDisplayName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedOf(sig.Recv().Type()); named != nil {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}
