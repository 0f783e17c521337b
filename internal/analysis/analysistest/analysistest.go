// Package analysistest runs one analyzer over a fixture module under
// testdata and checks its diagnostics against // want comments, in the
// style of golang.org/x/tools/go/analysis/analysistest (which this repo
// deliberately does not depend on).
//
// A fixture is a directory containing a go.mod (e.g. `module fixture`)
// and ordinary packages; _test.go files inside fixtures are loaded
// together with their package so file-scoping rules can be exercised.
// Expectations are written at the end of the offending line:
//
//	s += float64(v) // want `silent float32→float64 widening`
//
// The quoted text is a regular expression matched against the
// diagnostic message; multiple `// want "re1" "re2"` patterns on one
// line expect multiple diagnostics on that line. Diagnostics without a
// matching want, and wants without a matching diagnostic, fail the test.
package analysistest

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

var wantRE = regexp.MustCompile("//\\s*want\\s+((?:[\"`][^\"`]*[\"`]\\s*)+)")
var wantArgRE = regexp.MustCompile("[\"`]([^\"`]*)[\"`]")

// Run loads the fixture module rooted at dir, runs analyzer a over every
// package, and checks diagnostics against the fixtures' want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	mod, err := analysis.LoadModule(dir, true)
	if err != nil {
		t.Fatalf("loading fixture module %s: %v", dir, err)
	}
	pkgs := mod.SortedPackages()
	if len(pkgs) == 0 {
		t.Fatalf("no fixture packages under %s", dir)
	}

	var diags []analysis.Diagnostic
	for _, p := range pkgs {
		pass := analysis.NewPass(a, mod.Fset, p, mod, &diags)
		if err := a.Run(pass); err != nil {
			t.Fatalf("%s on %s: %v", a.Name, p.Path, err)
		}
	}
	analysis.SortDiagnostics(mod.Fset, diags)

	wants := collectWants(t, mod, pkgs)
	for _, d := range diags {
		pos := mod.Fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		matched := false
		for i, w := range wants[key] {
			if w == nil {
				continue
			}
			if w.MatchString(d.Message) {
				wants[key][i] = nil
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", key, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if w != nil {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, w)
			}
		}
	}
}

// collectWants scans every fixture file of the given packages for
// // want comments, keyed by "filename:line".
func collectWants(t *testing.T, mod *analysis.Module, pkgs []*analysis.Package) map[string][]*regexp.Regexp {
	t.Helper()
	wants := map[string][]*regexp.Regexp{}
	seen := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			name := mod.Fset.Position(f.Pos()).Filename
			if name == "" || seen[name] {
				continue
			}
			seen[name] = true
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatalf("reading fixture %s: %v", name, err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				m := wantRE.FindStringSubmatch(line)
				if m == nil {
					continue
				}
				key := fmt.Sprintf("%s:%d", name, i+1)
				for _, am := range wantArgRE.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(am[1])
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", key, am[1], err)
					}
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	return wants
}
