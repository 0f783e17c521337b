package analysis

import (
	"fmt"
	"strings"
)

// Driver is the repolint engine: one module load, one type-check,
// shared across every analyzer. The cost of adding an analyzer is its
// Run time only — the front-loaded load/type-check is paid once.
// cmd/repolint is a thin wrapper over this; tests drive it directly
// with a counting loader to pin the single-load property.
type Driver struct {
	// Load replaces LoadModule when non-nil, so tests can count how
	// often the module is loaded.
	Load func(dir string, includeTests bool) (*Module, error)
}

// Run loads the module rooted at dir exactly once and runs the
// analyzers over every package, then re-runs the TestFiles analyzers
// over the test-augmented package variants keeping only diagnostics
// positioned in _test.go files. Diagnostics come back sorted.
func (d *Driver) Run(dir string, analyzers []*Analyzer) ([]Diagnostic, *Module, error) {
	load := LoadModule
	if d.Load != nil {
		load = d.Load
	}
	mod, err := load(dir, false)
	if err != nil {
		return nil, nil, err
	}

	var diags []Diagnostic
	for _, pkg := range mod.SortedPackages() {
		for _, a := range analyzers {
			pass := NewPass(a, mod.Fset, pkg, mod, &diags)
			if err := a.Run(pass); err != nil {
				return nil, mod, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}

	// Test variants: only analyzers whose rules cover _test.go files
	// run here, and only findings positioned in test files are kept
	// (augmented variants re-contain the regular sources).
	for _, pkg := range mod.LoadTestPackages() {
		for _, a := range analyzers {
			if !a.TestFiles {
				continue
			}
			var tdiags []Diagnostic
			pass := NewPass(a, mod.Fset, pkg, mod, &tdiags)
			if err := a.Run(pass); err != nil {
				return nil, mod, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
			for _, td := range tdiags {
				if strings.HasSuffix(mod.Fset.Position(td.Pos).Filename, "_test.go") {
					diags = append(diags, td)
				}
			}
		}
	}

	SortDiagnostics(mod.Fset, diags)
	return diags, mod, nil
}
