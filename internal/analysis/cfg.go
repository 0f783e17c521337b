package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the dataflow half of the analyzer suite: a dependency-free
// intra-procedural control-flow graph built directly from a function
// body's go/ast. The syntactic analyzers (PR 3) inspect statements in
// isolation; the CFG lets faultflow ask "does this error reach a use on
// *every* path" and lets lockorder propagate the held-mutex set across
// branches and loops.
//
// Blocks hold only flat statements (assignments, calls, sends, defers,
// returns, ...) — the bodies of nested if/for/switch/select statements
// are split into their own blocks, so scanning a block's Stmts never
// re-visits code that belongs to another block. The one composite node a
// block may hold is *ast.RangeStmt (in its loop-head block, standing for
// the per-iteration key/value binding); scanners must use stmtExprs and
// friends from dataflow.go rather than ast.Inspect on whole statements.

// Block is one basic block: statements that execute in order, followed by
// an optional branch condition, followed by transfer to one successor.
type Block struct {
	// Index is the block's position in CFG.Blocks.
	Index int
	// Kind is a debugging label ("entry", "if.then", "for.head", ...).
	Kind string
	// Stmts are the flat statements executed in order.
	Stmts []ast.Stmt
	// Cond, when set, is the branch condition evaluated after Stmts
	// (an if/for condition or a switch tag).
	Cond ast.Expr
	// Succs are the possible transfer targets.
	Succs []*Block
	// Dead marks blocks unreachable from the entry (code after an
	// unconditional return/break/goto).
	Dead bool
}

// CFG is the control-flow graph of one function body. Deferred calls are
// collected separately: they run between any return and the actual exit.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
	// Defers lists every defer statement in the body (including ones in
	// dead blocks), in source order.
	Defers []*ast.DeferStmt
}

// NumEdges returns the total successor-edge count, the quantity the
// builder tests assert alongside the block count.
func (c *CFG) NumEdges() int {
	n := 0
	for _, b := range c.Blocks {
		n += len(b.Succs)
	}
	return n
}

// FindStmt locates the block and index holding s, or (nil, -1).
func (c *CFG) FindStmt(s ast.Stmt) (*Block, int) {
	for _, b := range c.Blocks {
		for i, bs := range b.Stmts {
			if bs == s {
				return b, i
			}
		}
	}
	return nil, -1
}

// BuildCFG constructs the control-flow graph of a function body. A nil
// body (declaration without implementation) yields a two-block graph.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:          &CFG{},
		labels:       map[string]*Block{},
		labeledBreak: map[string]*Block{},
		labeledCont:  map[string]*Block{},
	}
	b.cfg.Entry = b.newBlock("entry")
	b.cfg.Exit = b.newBlock("exit")
	cur := b.newBlock("body")
	b.edge(b.cfg.Entry, cur)
	if body != nil {
		cur = b.stmtList(cur, body.List)
	}
	b.edge(cur, b.cfg.Exit)
	for _, g := range b.gotos {
		if t := b.labels[g.label]; t != nil {
			b.edge(g.from, t)
		} else {
			// unresolved goto (malformed input): fail safe toward exit
			b.edge(g.from, b.cfg.Exit)
		}
	}
	b.markDead()
	return b.cfg
}

type pendingGoto struct {
	from  *Block
	label string
}

type cfgBuilder struct {
	cfg *CFG
	// breaks/conts are the innermost-first stacks of break and continue
	// targets (break also targets switch/select afters).
	breaks, conts []*Block
	labels        map[string]*Block
	labeledBreak  map[string]*Block
	labeledCont   map[string]*Block
	gotos         []pendingGoto
	// curLabel is the label immediately preceding a loop/switch/select,
	// consumed by that statement's builder.
	curLabel string
	// pendingFall is the block ending in a fallthrough, to be wired to
	// the next case clause by the switch builder.
	pendingFall *Block
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

func (b *cfgBuilder) takeLabel() string {
	l := b.curLabel
	b.curLabel = ""
	return l
}

func (b *cfgBuilder) stmtList(cur *Block, list []ast.Stmt) *Block {
	for _, s := range list {
		cur = b.stmt(cur, s)
	}
	return cur
}

// stmt extends the graph with one statement and returns the block where
// control continues. After a terminal statement (return, break, goto) it
// returns a fresh predecessor-less block; code appended there is dead.
func (b *cfgBuilder) stmt(cur *Block, s ast.Stmt) *Block {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(cur, s.List)

	case *ast.LabeledStmt:
		lb := b.newBlock("label." + s.Label.Name)
		b.edge(cur, lb)
		b.labels[s.Label.Name] = lb
		b.curLabel = s.Label.Name
		out := b.stmt(lb, s.Stmt)
		b.curLabel = ""
		return out

	case *ast.IfStmt:
		b.takeLabel() // a label on an if has no break semantics
		if s.Init != nil {
			cur.Stmts = append(cur.Stmts, s.Init)
		}
		cur.Cond = s.Cond
		then := b.newBlock("if.then")
		b.edge(cur, then)
		after := b.newBlock("if.after")
		thenEnd := b.stmt(then, s.Body)
		b.edge(thenEnd, after)
		if s.Else != nil {
			els := b.newBlock("if.else")
			b.edge(cur, els)
			b.edge(b.stmt(els, s.Else), after)
		} else {
			b.edge(cur, after)
		}
		return after

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			cur.Stmts = append(cur.Stmts, s.Init)
		}
		head := b.newBlock("for.head")
		b.edge(cur, head)
		body := b.newBlock("for.body")
		after := b.newBlock("for.after")
		if s.Cond != nil {
			head.Cond = s.Cond
			b.edge(head, body)
			b.edge(head, after)
		} else {
			b.edge(head, body)
		}
		contTarget := head
		if s.Post != nil {
			post := b.newBlock("for.post")
			post.Stmts = append(post.Stmts, s.Post)
			b.edge(post, head)
			contTarget = post
		}
		b.edge(b.loopBody(body, s.Body, after, contTarget, label), contTarget)
		return after

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock("range.head")
		b.edge(cur, head)
		// The RangeStmt node itself stands in for the per-iteration
		// key/value binding; scanners read X/Key/Value via stmtExprs and
		// never descend into the Body, which lives in its own blocks.
		head.Stmts = append(head.Stmts, s)
		body := b.newBlock("range.body")
		after := b.newBlock("range.after")
		b.edge(head, body)
		b.edge(head, after)
		b.edge(b.loopBody(body, s.Body, after, head, label), head)
		return after

	case *ast.SwitchStmt:
		if s.Init != nil {
			cur.Stmts = append(cur.Stmts, s.Init)
		}
		if s.Tag != nil {
			cur.Cond = s.Tag
		}
		return b.switchBody(cur, s.Body, nil)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			cur.Stmts = append(cur.Stmts, s.Init)
		}
		return b.switchBody(cur, s.Body, s.Assign)

	case *ast.SelectStmt:
		label := b.takeLabel()
		after := b.newBlock("select.after")
		if label != "" {
			b.labeledBreak[label] = after
		}
		b.breaks = append(b.breaks, after)
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			body := b.newBlock("select.comm")
			b.edge(cur, body)
			if cc.Comm != nil {
				body.Stmts = append(body.Stmts, cc.Comm)
			}
			b.edge(b.stmtList(body, cc.Body), after)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		// select{} blocks forever: no successor at all
		return after

	case *ast.ReturnStmt:
		cur.Stmts = append(cur.Stmts, s)
		b.edge(cur, b.cfg.Exit)
		return b.newBlock("unreachable")

	case *ast.BranchStmt:
		cur.Stmts = append(cur.Stmts, s)
		switch s.Tok {
		case token.BREAK:
			t := b.top(b.breaks)
			if s.Label != nil {
				t = b.labeledBreak[s.Label.Name]
			}
			if t == nil {
				t = b.cfg.Exit // malformed input; fail safe
			}
			b.edge(cur, t)
		case token.CONTINUE:
			t := b.top(b.conts)
			if s.Label != nil {
				t = b.labeledCont[s.Label.Name]
			}
			if t == nil {
				t = b.cfg.Exit
			}
			b.edge(cur, t)
		case token.GOTO:
			if s.Label != nil {
				b.gotos = append(b.gotos, pendingGoto{cur, s.Label.Name})
			}
		case token.FALLTHROUGH:
			b.pendingFall = cur
		}
		return b.newBlock("unreachable")

	case *ast.DeferStmt:
		b.cfg.Defers = append(b.cfg.Defers, s)
		cur.Stmts = append(cur.Stmts, s)
		return cur

	case *ast.ExprStmt:
		cur.Stmts = append(cur.Stmts, s)
		if isPanicCall(s.X) {
			b.edge(cur, b.cfg.Exit)
			return b.newBlock("unreachable")
		}
		return cur

	case nil:
		return cur

	default:
		// assign, decl, send, incdec, go, empty: straight-line
		cur.Stmts = append(cur.Stmts, s)
		return cur
	}
}

// loopBody builds a loop body with break/continue targets registered.
func (b *cfgBuilder) loopBody(body *Block, stmts *ast.BlockStmt, brk, cont *Block, label string) *Block {
	if label != "" {
		b.labeledBreak[label] = brk
		b.labeledCont[label] = cont
	}
	b.breaks = append(b.breaks, brk)
	b.conts = append(b.conts, cont)
	end := b.stmtList(body, stmts.List)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.conts = b.conts[:len(b.conts)-1]
	return end
}

// switchBody builds the clause chain shared by value and type switches.
// Case expressions are evaluated in source order along a chain of test
// blocks (test_i falls through to test_i+1 on mismatch), so a path that
// lands in a later clause — or in default — still evaluates every
// earlier case expression, exactly as at runtime. assign, when non-nil,
// is the `v := x.(type)` statement of a type switch, evaluated once
// before the chain.
func (b *cfgBuilder) switchBody(cur *Block, body *ast.BlockStmt, assign ast.Stmt) *Block {
	label := b.takeLabel()
	after := b.newBlock("switch.after")
	if label != "" {
		b.labeledBreak[label] = after
	}
	b.breaks = append(b.breaks, after)
	if assign != nil {
		cur.Stmts = append(cur.Stmts, assign)
	}
	clauses := body.List
	bodies := make([]*Block, len(clauses))
	defaultIdx := -1
	for i, c := range clauses {
		bodies[i] = b.newBlock("case")
		if c.(*ast.CaseClause).List == nil {
			defaultIdx = i
		}
	}
	prev := cur
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			continue
		}
		t := b.newBlock("switch.test")
		b.edge(prev, t)
		for _, e := range cc.List {
			// fabricated wrapper so the case expressions participate in
			// use-scanning; positions are the expression's own
			t.Stmts = append(t.Stmts, &ast.ExprStmt{X: e})
		}
		b.edge(t, bodies[i])
		prev = t
	}
	if defaultIdx >= 0 {
		b.edge(prev, bodies[defaultIdx])
	} else {
		b.edge(prev, after)
	}
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		end := b.stmtList(bodies[i], cc.Body)
		if b.pendingFall != nil {
			if i+1 < len(clauses) {
				b.edge(b.pendingFall, bodies[i+1])
			}
			b.pendingFall = nil
		}
		b.edge(end, after)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	return after
}

func (b *cfgBuilder) top(stack []*Block) *Block {
	if len(stack) == 0 {
		return nil
	}
	return stack[len(stack)-1]
}

// markDead flags blocks unreachable from the entry.
func (b *cfgBuilder) markDead() {
	reach := b.cfg.reach(b.cfg.Entry)
	for _, blk := range b.cfg.Blocks {
		blk.Dead = !reach[blk.Index]
	}
}

// reach marks, by block index, the blocks reachable from start (start
// included).
func (c *CFG) reach(start *Block) []bool {
	seen := make([]bool, len(c.Blocks))
	seen[start.Index] = true
	for stack := []*Block{start}; len(stack) > 0; {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if !seen[s.Index] {
				seen[s.Index] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// isPanicCall reports whether e is syntactically a call to the panic
// builtin (shadowing is ignored: a user function named panic would be
// treated as terminal, which is the safe direction for our analyses).
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
