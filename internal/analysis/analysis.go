// Package analysis is the repo's domain-invariant static analysis suite:
// a small, dependency-free framework in the shape of golang.org/x/tools'
// go/analysis, plus four analyzers that turn this repo's correctness
// conventions into compiler-checked rules: a silently widened kernel
// accumulator, an execution path that never reaches the differential
// oracle, or an unseeded RNG in a test or a replayable tool all break
// guarantees the test suite is built on.
//
// An analyzer lives here only when it proves an all-paths or whole-tree
// property no test states. Properties a runtime gate states more
// strongly are left to that gate: allocation-freedom of the kernel
// loops to internal/testkit's hot-path registry (AllocsPerRun == 0),
// data races to `go test -race` and `make race-stress`, goroutine
// termination to internal/testkit/suite's VerifyNoLeaks, the serving
// layer's admission caps to internal/mddserve's cap table and FuzzSubmit,
// cancellation and wakeups in the serving and batch stacks to their
// TestCancel* tests, dropped fault and solver errors and locks held
// across a wait to the tests of the packages that own those sites,
// bit-determinism of the machine models to TestModelRepeatsBitForBit,
// and span hygiene of the obs timers to TestTimersRecordEverySpan
// (EXPERIMENTS.md, "Retired analyzers", records the evidence).
//
// The analyzers share one engine. go/build picks the files of each
// package (load.go). Pass.Reportf applies the one //lint: escape rule
// (an escape covers its own line and the next, or, in a function's doc
// comment, the whole function) and drops a second diagnostic at the
// same position. Three analyzers are syntactic (AST pattern matches):
// precwiden, oraclereg, seededrand. There is no control-flow graph or
// dataflow solver, and no analyzer looks across function boundaries.
// lintlint polices the //lint: directives the others consult.
//
// The analyzers (see their files for the precise rules):
//
//   - precwiden: no silent float32→float64 / complex64→complex128
//     widening inside kernel hot loops (escape: //lint:widen-ok).
//   - oraclereg: every exported MulVec-shaped kernel entry point must be
//     referenced from the internal/testkit differential oracle
//     (escape: //lint:oracle-exempt).
//   - seededrand: test/bench/testkit/cmd and serving-layer RNGs must be
//     explicitly and deterministically seeded.
//   - lintlint: directive hygiene — unknown/misspelled //lint:
//     directives and stale escapes that no longer suppress anything.
//
// cmd/repolint drives the suite over the whole module, type-checked from
// source. The framework is stdlib-only on purpose: the module has no
// third-party dependencies and the analyzers need nothing
// x/tools-specific.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned inside a loaded file set.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Analyzer is one checker. Run inspects a single type-checked package
// and reports findings through the pass.
type Analyzer struct {
	Name string
	Doc  string

	// TestFiles marks analyzers whose rules apply to _test.go files.
	// All analyzers receive whatever files the driver loaded and are
	// responsible for their own file filtering; this flag lets drivers
	// know the analyzer is worth running on test-augmented packages.
	TestFiles bool

	Run func(*Pass) error
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Path is the package's import path as the driver knows it. Drivers
	// should normalize away test-variant decorations ("pkg [pkg.test]").
	Path string

	// Module is the whole-module context; every pass has one.
	Module *Module

	// IgnoreEscapes disables //lint: escape suppression. The lintlint
	// analyzer re-runs the suite in this mode to learn which escapes
	// still attach to a diagnostic.
	IgnoreEscapes bool

	diags    *[]Diagnostic
	reported map[token.Pos]bool
}

// NewPass assembles a Pass that appends its findings to sink.
func NewPass(a *Analyzer, fset *token.FileSet, pkg *Package, module *Module, sink *[]Diagnostic) *Pass {
	return &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Path:      pkg.Path,
		Module:    module,
		diags:     sink,
	}
}

// Reportf records a diagnostic at pos, unless one is already recorded
// there or a //lint: escape of this analyzer covers pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.reported[pos] || (!p.IgnoreEscapes && escaped(p.Fset, p.Files, p.Analyzer.Name, pos)) {
		return
	}
	if p.reported == nil {
		p.reported = map[token.Pos]bool{}
	}
	p.reported[pos] = true
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// IsTestFile reports whether the file containing pos is a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// All returns the full suite in stable order. lintlint runs last: it
// re-runs the other analyzers (escapes ignored) to detect stale escapes
// and must never recurse into itself.
func All() []*Analyzer {
	return []*Analyzer{
		PrecWiden,
		OracleReg,
		SeededRand,
		LintLint,
	}
}

// ByName resolves a comma-separated analyzer name list ("" = all).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", n, analyzerNames())
		}
		out = append(out, a)
	}
	return out, nil
}

func analyzerNames() string {
	var ns []string
	for _, a := range All() {
		ns = append(ns, a.Name)
	}
	return strings.Join(ns, ", ")
}

// SortDiagnostics orders diags by file position for stable output.
func SortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
}

// pathMatches reports whether the import path is, or ends with a
// "/"-delimited occurrence of, one of the given suffixes. Matching by
// suffix keeps the analyzers testable against fixture modules
// ("fixture/internal/cs2") while targeting the real tree
// ("repro/internal/cs2").
func pathMatches(path string, suffixes ...string) bool {
	path = normalizePath(path)
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// hasPathSegment reports whether the normalized import path contains
// seg as a whole "/"-delimited segment ("repro/cmd/mddrun" contains
// "cmd"; "repro/internal/cmdutil" does not).
func hasPathSegment(path, seg string) bool {
	path = normalizePath(path)
	for path != "" {
		next := ""
		if i := strings.IndexByte(path, '/'); i >= 0 {
			path, next = path[:i], path[i+1:]
		}
		if path == seg {
			return true
		}
		path = next
	}
	return false
}

// normalizePath strips the "_test" suffix the loader gives external
// test packages, so they scope like the package they test.
func normalizePath(path string) string {
	return strings.TrimSuffix(path, "_test")
}

// calleeFunc resolves the called function object of a call expression,
// looking through selector and plain-identifier call forms. It returns
// nil for builtins, type conversions, and calls of function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// funcPkgPath returns the import path of the package a *types.Func
// belongs to ("" for builtins/universe).
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// knownDirectives is the registry of every //lint: directive the suite
// understands, mapped to the analyzer that owns it (consults it when
// reporting). Every directive is an escape: it suppresses one diagnostic
// of its owner. lintlint uses the table both to flag unknown directives
// and to decide which analyzer's escape-ignored diagnostics an escape
// must attach to. New analyzers with escapes must register here or
// lintlint flags their directives as unknown.
var knownDirectives = map[string]string{
	"widen-ok":      "precwiden",
	"oracle-exempt": "oraclereg",
}

// escape is one //lint: directive comment and the lines it covers: its
// own line and the next, or, in a function's doc comment, every line
// through the end of that function. This is the one escape rule:
// Reportf suppresses what an escape covers, and lintlint calls an
// escape stale when none of its owner's diagnostics lands in it.
type escape struct {
	name     string
	comment  *ast.Comment
	from, to int
}

func (e escape) covers(line int) bool { return e.from <= line && line <= e.to }

// fileEscapes lists the //lint: directive comments of file.
func fileEscapes(fset *token.FileSet, file *ast.File) []escape {
	docEnd := map[*ast.CommentGroup]token.Pos{}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Doc != nil {
			docEnd[fd.Doc] = fd.End()
		}
	}
	var out []escape
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			name, ok := directiveName(c.Text)
			if !ok {
				continue
			}
			line := fset.Position(c.Pos()).Line
			e := escape{name: name, comment: c, from: line, to: line + 1}
			if end, ok := docEnd[cg]; ok {
				e.to = fset.Position(end).Line
			}
			out = append(out, e)
		}
	}
	return out
}

// escaped reports whether an escape owned by the named analyzer covers
// pos, which lies in one of files.
func escaped(fset *token.FileSet, files []*ast.File, analyzer string, pos token.Pos) bool {
	for _, f := range files {
		if f.FileStart <= pos && pos < f.FileEnd {
			line := fset.Position(pos).Line
			for _, e := range fileEscapes(fset, f) {
				if knownDirectives[e.name] == analyzer && e.covers(line) {
					return true
				}
			}
		}
	}
	return false
}

// directiveName extracts NAME from a comment of the form
// "//lint:NAME ...". Only comments that begin with the directive prefix
// count — prose mentioning a directive mid-sentence does not.
func directiveName(text string) (string, bool) {
	rest, ok := strings.CutPrefix(text, "//lint:")
	if !ok {
		return "", false
	}
	name := rest
	if i := strings.IndexAny(name, " \t"); i >= 0 {
		name = name[:i]
	}
	return name, name != ""
}

// eachFunc calls visit for every function declaration with a body in
// the pass's files, _test.go files only when tests is set, with the
// function it declares.
func (p *Pass) eachFunc(tests bool, visit func(fd *ast.FuncDecl, fn *types.Func)) {
	for _, file := range p.Files {
		if !tests && p.IsTestFile(file.Pos()) {
			continue
		}
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn, _ := p.TypesInfo.Defs[fd.Name].(*types.Func)
				visit(fd, fn)
			}
		}
	}
}

// walkStack traverses the file calling fn with each node and the stack
// of its ancestors (outermost first, not including the node itself).
func walkStack(file *ast.File, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// loopDepth counts for/range statements on the stack that are inside
// the innermost enclosing function (loops in an outer function do not
// make a closure body "hot").
func loopDepth(stack []ast.Node) int {
	depth := 0
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			depth++
		case *ast.FuncDecl, *ast.FuncLit:
			return depth
		}
	}
	return depth
}
