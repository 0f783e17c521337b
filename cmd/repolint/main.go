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
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [-only names] [packages]\n\nanalyzers:\n", progname)
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-18s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

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
	// analyzer shares that single load.
	diags, mod, err := (&analysis.Driver{}).Run(wd, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
		return 2
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
