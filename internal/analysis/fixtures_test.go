package analysis_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// TestFixtures runs every registered analyzer over its fixture module,
// testdata/<name>/, against the fixture's // want comments. An analyzer
// registered without a fixture module fails here: its diagnostics could
// drift unpinned.
func TestFixtures(t *testing.T) {
	for _, a := range analysis.All() {
		t.Run(a.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", a.Name)
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
				t.Fatalf("no fixture module for %s: %v", a.Name, err)
			}
			analysistest.Run(t, dir, a)
		})
	}
}
