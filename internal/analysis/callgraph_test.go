package analysis_test

import (
	"go/ast"
	"go/types"
	"sort"
	"testing"

	"repro/internal/analysis"
)

func loadCallGraph(t *testing.T) *analysis.CallGraph {
	t.Helper()
	mod, err := analysis.LoadModule("testdata/callgraph", false)
	if err != nil {
		t.Fatalf("loading callgraph fixture: %v", err)
	}
	return mod.CallGraph()
}

func nodeNamed(t *testing.T, g *analysis.CallGraph, name string) *analysis.FuncNode {
	t.Helper()
	var found *analysis.FuncNode
	for _, n := range g.SortedNodes() {
		if n.Fn.Name() == name {
			if found != nil {
				t.Fatalf("two nodes named %s", name)
			}
			found = n
		}
	}
	if found == nil {
		t.Fatalf("no node named %s", name)
	}
	return found
}

// calleeNames lists a node's module callees by name, in call order.
func calleeNames(n *analysis.FuncNode) []string {
	var calls []*ast.CallExpr
	for call := range n.Callees {
		calls = append(calls, call)
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i].Pos() < calls[j].Pos() })
	var out []string
	for _, call := range calls {
		out = append(out, n.Callees[call].Fn.Name())
	}
	return out
}

func TestCallGraphClassification(t *testing.T) {
	g := loadCallGraph(t)
	cases := []struct {
		fn   string
		want []string
	}{
		{"direct", []string{"helper"}},
		{"method", []string{"Do"}},
		{"devirt", []string{"Do"}}, // devirtualized to valImpl.Do
		{"rebound", nil},           // two assignments: not devirtualized
		{"indirect", nil},          // a function value
		{"external", nil},          // strings.ToUpper is outside the module
		{"builtins", nil},          // make/len/append are not calls
		{"inLiteral", []string{"helper"}},
		{"selfLoop", []string{"selfLoop", "helper"}},
	}
	for _, c := range cases {
		n := nodeNamed(t, g, c.fn)
		got := calleeNames(n)
		if len(got) != len(c.want) {
			t.Errorf("%s: callees %v, want %v", c.fn, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: callees %v, want %v", c.fn, got, c.want)
				break
			}
		}
	}

	// devirt resolved to the value implementation, not the interface method
	for _, callee := range nodeNamed(t, g, "devirt").Callees {
		recv := callee.Fn.Type().(*types.Signature).Recv()
		if recv == nil || recv.Type().String() != "fixture/cg.valImpl" {
			t.Errorf("devirt callee receiver = %v, want fixture/cg.valImpl", recv)
		}
	}
}

func TestSummarizeFixpoint(t *testing.T) {
	g := loadCallGraph(t)
	helper := nodeNamed(t, g, "helper").Fn

	// "reaches helper" propagated bottom-up; selfLoop's recursion must
	// converge rather than oscillate.
	facts := analysis.Summarize(g, func(n *analysis.FuncNode, get func(*types.Func) bool) bool {
		for _, callee := range n.Callees {
			if callee.Fn == helper || get(callee.Fn) {
				return true
			}
		}
		return false
	}, func(a, b bool) bool { return a == b })

	wantTrue := map[string]bool{"direct": true, "inLiteral": true, "selfLoop": true}
	for _, n := range g.SortedNodes() {
		if facts[n.Fn] != wantTrue[n.Fn.Name()] {
			t.Errorf("reaches-helper fact for %s = %v, want %v", n.Fn.Name(), facts[n.Fn], wantTrue[n.Fn.Name()])
		}
	}
}
