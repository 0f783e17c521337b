package analysis

import (
	"go/ast"
	"sort"
	"strings"
)

// LintLint keeps the directive surface itself honest. The //lint:
// directives are load-bearing — a misspelled //lint:aloc-ok silently
// suppresses nothing while the author believes the hot path is vouched
// for, and an escape left behind after the code it excused was fixed
// rots into misleading documentation. Two rules:
//
//  1. every //lint: comment must name a directive from the
//     knownDirectives registry (misspellings get a nearest-match hint);
//  2. an escape directive must still attach to a diagnostic: re-running
//     its owning analyzer with escapes ignored must report on a line the
//     escape covers (its own line, the line below, or — for escapes in a
//     declaration's doc comment — anywhere in that declaration).
//
// lintlint runs last in the suite and never re-runs itself.
var LintLint = &Analyzer{
	Name: "lintlint",
	Doc: "flag unknown //lint: directives and stale escapes that no longer " +
		"suppress any diagnostic",
	TestFiles: true,
}

// Run is wired in init: runLintLint walks All() to find escape owners,
// and a literal field initializer would form an initialization cycle.
func init() { LintLint.Run = runLintLint }

// fileLine keys a diagnostic's location; package candidate sets must be
// keyed by file as well as line because files share line numbers.
type fileLine struct {
	file string
	line int
}

func runLintLint(pass *Pass) error {
	cands := map[string]map[fileLine]bool{}
	candsFor := func(owner string) (map[fileLine]bool, bool) {
		if c, ok := cands[owner]; ok {
			return c, c != nil
		}
		set := lintCandidates(pass, owner)
		cands[owner] = set
		return set, set != nil
	}

	for _, file := range pass.Files {
		docOwner := map[*ast.Comment]*ast.FuncDecl{}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				docOwner[c] = fd
			}
		}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				name, ok := directiveName(c.Text)
				if !ok {
					continue
				}
				owner, known := knownDirectives[name]
				if !known {
					hint := ""
					if near := nearestDirective(name); near != "" {
						hint = "; did you mean //lint:" + near + "?"
					}
					pass.Reportf(c.Pos(), "unknown //lint: directive %q%s (known: %s)", name, hint, directiveNames())
					continue
				}
				set, known := candsFor(owner)
				if !known {
					continue // owner cannot run in this pass; no verdict
				}
				pos := pass.Fset.Position(c.Pos())
				if !escapeCovers(pass, set, pos.Filename, pos.Line, docOwner[c]) {
					pass.Reportf(c.Pos(), "stale //lint:%s: no %s diagnostic attaches here anymore; delete the escape or move it next to what it excuses", name, owner)
				}
			}
		}
	}
	return nil
}

// escapeCovers reports whether any candidate diagnostic lands on a line
// the escape at (file, line) suppresses: the line itself, the next line,
// or the whole declaration span when the escape sits in its doc comment.
func escapeCovers(pass *Pass, set map[fileLine]bool, file string, line int, decl *ast.FuncDecl) bool {
	if set[fileLine{file, line}] || set[fileLine{file, line + 1}] {
		return true
	}
	if decl == nil {
		return false
	}
	start := pass.Fset.Position(decl.Pos()).Line
	end := pass.Fset.Position(decl.End()).Line
	for l := start; l <= end; l++ {
		if set[fileLine{file, l}] {
			return true
		}
	}
	return false
}

// lintCandidates re-runs the owning analyzer over this pass's package
// with escapes ignored and collects the lines it reports on. A nil
// return means the owner cannot produce a verdict here (it skips
// test-variant packages entirely) — staleness is then not judged rather
// than misjudged.
func lintCandidates(pass *Pass, owner string) map[fileLine]bool {
	var a *Analyzer
	for _, cand := range All() {
		if cand.Name == owner && cand.Name != LintLint.Name {
			a = cand
		}
	}
	if a == nil {
		return nil
	}
	if pass.TestVariant && (owner == ReqTaint.Name || owner == CtxFlow.Name) {
		return nil // these skip test-variant passes; nothing to compare against
	}
	var tmp []Diagnostic
	sub := &Pass{
		Analyzer:      a,
		Fset:          pass.Fset,
		Files:         pass.Files,
		Pkg:           pass.Pkg,
		TypesInfo:     pass.TypesInfo,
		Path:          pass.Path,
		Module:        pass.Module,
		TestVariant:   pass.TestVariant,
		IgnoreEscapes: true,
		diags:         &tmp,
	}
	if err := a.Run(sub); err != nil {
		return nil
	}
	set := map[fileLine]bool{}
	for _, d := range tmp {
		p := pass.Fset.Position(d.Pos)
		set[fileLine{p.Filename, p.Line}] = true
	}
	return set
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

func directiveNames() string {
	names := make([]string, 0, len(knownDirectives))
	for n := range knownDirectives {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// nearestDirective suggests the registered directive within edit
// distance 2 of the unknown name (ties break lexicographically).
func nearestDirective(name string) string {
	best, bestDist := "", 3
	names := make([]string, 0, len(knownDirectives))
	for n := range knownDirectives {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if d := editDistance(name, n); d < bestDist {
			best, bestDist = n, d
		}
	}
	return best
}

func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
