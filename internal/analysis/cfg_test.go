package analysis_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"repro/internal/analysis"
)

// buildCFG parses src as the body of a function and builds its CFG.
// Snippets only need to parse, not type-check.
func buildCFG(t testing.TB, src string) *analysis.CFG {
	t.Helper()
	cfg, err := buildCFGErr(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return cfg
}

func buildCFGErr(src string) (*analysis.CFG, error) {
	file := "package p\nfunc f() {\n" + src + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "f.go", file, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok {
			return analysis.BuildCFG(fn.Body), nil
		}
	}
	return nil, fmt.Errorf("no function in %q", src)
}

func countDead(cfg *analysis.CFG) int {
	n := 0
	for _, b := range cfg.Blocks {
		if b.Dead {
			n++
		}
	}
	return n
}

func TestBuildCFGShapes(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		blocks int
		edges  int
		dead   int
	}{
		{
			name:   "straight line",
			src:    "x := 1\n_ = x",
			blocks: 3, // entry, exit, body
			edges:  2,
			dead:   0,
		},
		{
			name:   "if without else",
			src:    "if x > 0 {\n x = 1\n}\nx = 2",
			blocks: 5, // + if.then, if.after
			edges:  5,
			dead:   0,
		},
		{
			name:   "if with else",
			src:    "if x > 0 {\n x = 1\n} else {\n x = 2\n}",
			blocks: 6, // + if.then, if.after, if.else
			edges:  6,
			dead:   0,
		},
		{
			name:   "three-clause for",
			src:    "for i := 0; i < 10; i++ {\n x += i\n}",
			blocks: 7, // + for.head, for.body, for.after, for.post
			edges:  7,
			dead:   0,
		},
		{
			name:   "infinite for with break",
			src:    "for {\n break\n}",
			blocks: 7, // + head, body, after, unreachable-after-break
			edges:  6, // no head->after edge (no condition)
			dead:   1, // the block after break
		},
		{
			name:   "range loop",
			src:    "for _, v := range xs {\n sink(v)\n}",
			blocks: 6, // + range.head, range.body, range.after
			edges:  6,
			dead:   0,
		},
		{
			name: "switch with default",
			src:  "switch x {\ncase 1:\n a()\ncase 2:\n b()\ndefault:\n c()\n}",
			// + switch.after, 3 case bodies, 2 test blocks (default has none)
			blocks: 9,
			edges:  10,
			dead:   0,
		},
		{
			name:   "switch without default",
			src:    "switch x {\ncase 1:\n a()\n}",
			blocks: 6, // + switch.after, case body, test block
			edges:  6, // last test falls through to after
			dead:   0,
		},
		{
			name: "fallthrough",
			src:  "switch x {\ncase 1:\n a()\n fallthrough\ncase 2:\n b()\n}",
			// + after, 2 case bodies, 2 tests, unreachable-after-fallthrough
			blocks: 9,
			edges:  10, // includes the case1 -> case2 fallthrough edge
			dead:   1,
		},
		{
			name: "type switch",
			src:  "switch v := y.(type) {\ncase int:\n sink(v)\ndefault:\n sink(v)\n}",
			// + after, 2 case bodies, 1 test (default has none)
			blocks: 7,
			edges:  7,
			dead:   0,
		},
		{
			name:   "select with default",
			src:    "select {\ncase v := <-ch:\n sink(v)\ndefault:\n d()\n}",
			blocks: 6, // + select.after, 2 comm bodies
			edges:  6,
			dead:   0,
		},
		{
			name:   "empty select blocks forever",
			src:    "select {}",
			blocks: 4, // + select.after (never entered)
			edges:  2, // entry->body and after->exit only
			dead:   2, // select.after and exit are unreachable
		},
		{
			name: "labeled break through nested loops",
			src:  "outer:\nfor i := 0; i < 3; i++ {\n for {\n  break outer\n }\n}\nx = 1",
			// + label.outer, outer head/body/after/post, inner
			// head/body/after, unreachable-after-break
			blocks: 12,
			edges:  12,
			dead:   3, // inner for.after, outer for.post, unreachable
		},
		{
			name:   "goto back edge",
			src:    "x = 1\nloop:\n x++\nif x < 10 {\n goto loop\n}",
			blocks: 7, // + label.loop, if.then, if.after, unreachable
			edges:  7, // includes then -> label.loop
			dead:   1,
		},
		{
			name:   "panic is terminal",
			src:    "if x > 0 {\n panic(\"boom\")\n}\nx = 2",
			blocks: 6, // + if.then, if.after, unreachable-after-panic
			edges:  6, // then -> exit, not then -> after
			dead:   1,
		},
		{
			name:   "code after return is dead",
			src:    "return\nx = 1",
			blocks: 4, // + unreachable holding x = 1
			edges:  3, // body->exit, unreachable->exit
			dead:   1,
		},
		{
			// The canonical cancellable worker: the loop's only exit
			// runs through a select comm arm, so every iteration
			// dispatches from the select and only the Done arm leaves.
			name: "for around select with only Done arms",
			src:  "for {\n select {\n case <-ctx.Done():\n  return\n case <-tick.C:\n  work()\n }\n}",
			// + for head/body/after, select.after, 2 comm bodies,
			// unreachable-after-return
			blocks: 10,
			edges:  10, // tick arm loops back via select.after -> head
			dead:   2,  // for.after, unreachable-after-return
		},
		{
			name: "nested selects with default",
			src:  "select {\ncase v := <-ch:\n sink(v)\ndefault:\n select {\n case ch <- 1:\n  d()\n default:\n  e()\n }\n}",
			// outer select.after + 2 comm bodies, inner select.after +
			// 2 comm bodies; the inner select dispatches straight from
			// the outer default's comm block
			blocks: 9,
			edges:  10,
			dead:   0,
		},
		{
			// Backward goto whose target label wraps a select: the label
			// block must re-enter the select's dispatch, giving the comm
			// arms two predecessors.
			name: "goto into a select-containing block",
			src:  "x = 1\nloop:\n select {\n case <-ch:\n  a()\n default:\n }\nif x < 3 {\n x++\n goto loop\n}",
			// + label.loop, select.after, 2 comm bodies, if.then,
			// if.after, unreachable-after-goto
			blocks: 10,
			edges:  11, // includes then -> label.loop back edge
			dead:   1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := buildCFG(t, tc.src)
			if got := len(cfg.Blocks); got != tc.blocks {
				t.Errorf("blocks = %d, want %d\n%s", got, tc.blocks, dumpCFG(cfg))
			}
			if got := cfg.NumEdges(); got != tc.edges {
				t.Errorf("edges = %d, want %d\n%s", got, tc.edges, dumpCFG(cfg))
			}
			if got := countDead(cfg); got != tc.dead {
				t.Errorf("dead blocks = %d, want %d\n%s", got, tc.dead, dumpCFG(cfg))
			}
			checkCFGInvariants(t, cfg)
		})
	}
}

func TestBuildCFGNilBody(t *testing.T) {
	cfg := analysis.BuildCFG(nil)
	if len(cfg.Blocks) != 3 || cfg.NumEdges() != 2 {
		t.Fatalf("nil body: blocks=%d edges=%d, want 3/2", len(cfg.Blocks), cfg.NumEdges())
	}
	checkCFGInvariants(t, cfg)
}

func TestBuildCFGDefersCollected(t *testing.T) {
	cfg := buildCFG(t, "defer f()\nfor i := 0; i < 2; i++ {\n defer g()\n}")
	if len(cfg.Defers) != 2 {
		t.Fatalf("Defers = %d, want 2", len(cfg.Defers))
	}
}

func TestCFGFindStmt(t *testing.T) {
	src := "x := 1\nif x > 0 {\n x = 2\n}"
	cfg := buildCFG(t, src)
	var want ast.Stmt
	for _, b := range cfg.Blocks {
		if b.Kind == "if.then" && len(b.Stmts) == 1 {
			want = b.Stmts[0]
		}
	}
	if want == nil {
		t.Fatal("no if.then block with one statement")
	}
	blk, idx := cfg.FindStmt(want)
	if blk == nil || blk.Kind != "if.then" || idx != 0 {
		t.Fatalf("FindStmt = (%v, %d), want (if.then, 0)", blk, idx)
	}
	if blk2, idx2 := cfg.FindStmt(&ast.EmptyStmt{}); blk2 != nil || idx2 != -1 {
		t.Fatalf("FindStmt(foreign) = (%v, %d), want (nil, -1)", blk2, idx2)
	}
}

// checkCFGInvariants asserts the structural properties every built graph
// must satisfy; the fuzz target runs the same checks on arbitrary input.
func checkCFGInvariants(t testing.TB, cfg *analysis.CFG) {
	t.Helper()
	if cfg.Entry == nil || cfg.Exit == nil {
		t.Fatal("nil entry or exit")
	}
	for i, b := range cfg.Blocks {
		if b.Index != i {
			t.Fatalf("block %d has Index %d", i, b.Index)
		}
		for _, s := range b.Succs {
			if s.Index < 0 || s.Index >= len(cfg.Blocks) || cfg.Blocks[s.Index] != s {
				t.Fatalf("block %d has successor not in Blocks", i)
			}
		}
		seen := map[*analysis.Block]bool{}
		for _, s := range b.Succs {
			if seen[s] {
				t.Fatalf("block %d has duplicate successor %d", i, s.Index)
			}
			seen[s] = true
		}
	}
	if len(cfg.Exit.Succs) != 0 {
		t.Fatalf("exit block has %d successors", len(cfg.Exit.Succs))
	}
	// Dead must agree with an independent reachability recomputation.
	reach := map[*analysis.Block]bool{cfg.Entry: true}
	work := []*analysis.Block{cfg.Entry}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range b.Succs {
			if !reach[s] {
				reach[s] = true
				work = append(work, s)
			}
		}
	}
	for _, b := range cfg.Blocks {
		if b.Dead == reach[b] {
			t.Fatalf("block %d (%s): Dead=%v but reachable=%v", b.Index, b.Kind, b.Dead, reach[b])
		}
	}
}

// FuzzCFGBuild feeds arbitrary statement lists through the builder: it
// must never panic, and every graph must satisfy the invariants above.
func FuzzCFGBuild(f *testing.F) {
	seeds := []string{
		"x := 1",
		"if a {\n b()\n} else if c {\n d()\n}",
		"for i := range xs {\n if i > 2 {\n  continue\n }\n break\n}",
		"switch x {\ncase 1, 2:\n a()\n fallthrough\ndefault:\n b()\n}",
		"switch v := y.(type) {\ncase int:\n sink(v)\n}",
		"select {\ncase <-ch:\ncase ch <- 1:\n return\n}",
		"outer:\nfor {\n for {\n  continue outer\n }\n}",
		"goto done\nx = 1\ndone:\n x = 2",
		"defer f()\npanic(\"x\")",
		"L:\n{\n goto L\n}",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		cfg, err := buildCFGErr(src)
		if err != nil {
			t.Skip()
		}
		checkCFGInvariants(t, cfg)
	})
}

func dumpCFG(cfg *analysis.CFG) string {
	out := ""
	for _, b := range cfg.Blocks {
		out += fmt.Sprintf("  [%d] %s stmts=%d dead=%v ->", b.Index, b.Kind, len(b.Stmts), b.Dead)
		for _, s := range b.Succs {
			out += fmt.Sprintf(" %d", s.Index)
		}
		out += "\n"
	}
	return out
}
