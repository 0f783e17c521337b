package analysis

import (
	"go/token"
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
//     escape covers (the one escape rule, escape.covers: its own line,
//     the line below, or — in a function's doc comment — the whole
//     function).
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

func runLintLint(pass *Pass) error {
	cands := map[string][]Diagnostic{}
	for _, file := range pass.Files {
		for _, e := range fileEscapes(pass.Fset, file) {
			owner, known := knownDirectives[e.name]
			if !known {
				hint := ""
				if near := nearestDirective(e.name); near != "" {
					hint = "; did you mean //lint:" + near + "?"
				}
				pass.Reportf(e.comment.Pos(), "unknown //lint: directive %q%s (known: %s)", e.name, hint, directiveNames())
				continue
			}
			diags, ok := cands[owner]
			if !ok {
				var err error
				if diags, err = ownerDiagnostics(pass, owner); err != nil {
					return err
				}
				cands[owner] = diags
			}
			if !attaches(pass.Fset, e, diags) {
				pass.Reportf(e.comment.Pos(), "stale //lint:%s: no %s diagnostic attaches here anymore; delete the escape or move it next to what it excuses", e.name, owner)
			}
		}
	}
	return nil
}

// attaches reports whether a diagnostic lands on a line the escape
// covers, in the escape's file.
func attaches(fset *token.FileSet, e escape, diags []Diagnostic) bool {
	file := fset.Position(e.comment.Pos()).Filename
	for _, d := range diags {
		if p := fset.Position(d.Pos); p.Filename == file && e.covers(p.Line) {
			return true
		}
	}
	return false
}

// ownerDiagnostics re-runs the owning analyzer over this pass's package
// with escapes ignored and returns what it reports.
func ownerDiagnostics(pass *Pass, owner string) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range All() {
		if a.Name == owner {
			sub := *pass
			sub.Analyzer, sub.IgnoreEscapes, sub.diags, sub.reported = a, true, &diags, nil
			if err := a.Run(&sub); err != nil {
				return nil, err
			}
		}
	}
	return diags, nil
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
