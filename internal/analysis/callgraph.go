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
// maps its calls that resolve to another node to that node. Calls to
// functions outside the module, and calls whose target cannot be
// resolved statically (a function value, or an interface method the
// devirtualizer could not pin down), have no callee, and the analyzers
// built on the graph (reqtaint, ctxflow) treat them as "cannot prove".
// Calls inside function literals are attributed to the enclosing
// declaration: for summary purposes a closure's body is code the
// declaring function may run.
//
// Interface method calls are devirtualized only when the concrete type
// is locally evident — the receiver is a local variable with exactly one
// assignment whose right-hand side has a concrete type.

// FuncNode is one declared function or method in the module.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Callees maps every call in the body (closures included) whose
	// target is a module function to that function's node.
	Callees map[*ast.CallExpr]*FuncNode
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
	n.Callees = map[*ast.CallExpr]*FuncNode{}
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		if call, ok := nd.(*ast.CallExpr); ok {
			if callee := resolveCall(g, n, call); callee != nil {
				n.Callees[call] = callee
			}
		}
		return true
	})
}

// resolveCall returns the module node a call expression targets, or nil.
func resolveCall(g *CallGraph, n *FuncNode, call *ast.CallExpr) *FuncNode {
	fn := calleeFunc(n.Pkg.Info, call)
	if fn == nil {
		return nil
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		fn = devirtualize(n, sel, fn)
	}
	return g.Nodes[fn]
}

// devirtualize resolves an interface method call to a concrete method
// when the target is locally evident: the receiver is a local variable
// written exactly once in the enclosing declaration, with a concrete
// right-hand side. Address-taken receivers, range bindings, and
// multi-assignments all stay unresolved — the safe direction.
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
