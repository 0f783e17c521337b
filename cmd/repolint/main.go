// Command repolint runs the repo's domain-invariant static analysis
// suite (internal/analysis) over the module:
//
//	repolint [-only a,b] [./...]
//
// It loads the whole module from source — no export data, no third-party
// packages — and runs every analyzer over every package and, for the
// analyzers whose rules cover _test.go files, over the test variants.
// Package patterns are accepted for familiarity but the whole module is
// always analyzed: the analyzers' rules are module-wide invariants.
// Exit status: 0 clean, 1 diagnostics, 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	progname := filepath.Base(os.Args[0])
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	catalog := flag.Bool("catalog", false, "print the analyzer catalog as JSON and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [-only names] [packages]\n\nanalyzers:\n", progname)
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-18s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *catalog {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(analysis.Catalog()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}

	analyzers, err := analysis.ByName(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(run(analyzers))
}

// run analyzes the whole module rooted at the working directory.
func run(analyzers []*analysis.Analyzer) int {
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	// The driver loads and type-checks the module exactly once; every
	// analyzer (and every Module.Cached artifact: call graph, summaries)
	// shares that single load.
	diags, mod, err := (&analysis.Driver{}).Run(wd, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
		return 2
	}

	// Fixture drift guard: when the analyzed module is the one that hosts
	// the analysis suite itself, every registered analyzer must ship a
	// `// want` fixture module — a new analyzer cannot land unpinned.
	if pkg := mod.PackageBySuffix("internal/analysis"); pkg != nil {
		if missing := analysis.MissingFixtures(filepath.Join(pkg.Dir, "testdata")); len(missing) > 0 {
			fmt.Fprintf(os.Stderr, "repolint: analyzers without testdata fixture modules: %s\n", strings.Join(missing, ", "))
			return 1
		}
	}
	for _, d := range diags {
		pos := mod.Fset.Position(d.Pos)
		rel, err := filepath.Rel(wd, pos.Filename)
		if err != nil || strings.HasPrefix(rel, "..") {
			rel = pos.Filename
		}
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s: %s\n", rel, pos.Line, pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d issue(s)\n", len(diags))
		return 1
	}
	return 0
}
