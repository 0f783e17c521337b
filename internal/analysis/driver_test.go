package analysis_test

import (
	"testing"

	"repro/internal/analysis"
)

// TestDriverSingleLoad pins the standalone driver's cost model: running
// the full suite loads and type-checks the module exactly once.
func TestDriverSingleLoad(t *testing.T) {
	loads := 0
	d := &analysis.Driver{
		Load: func(dir string, includeTests bool) (*analysis.Module, error) {
			loads++
			return analysis.LoadModule(dir, includeTests)
		},
	}
	diags, mod, err := d.Run("testdata/seededrand", analysis.All())
	if err != nil {
		t.Fatalf("driver run: %v", err)
	}
	if mod == nil {
		t.Fatal("driver returned nil module")
	}
	if loads != 1 {
		t.Errorf("module loaded %d times, want exactly 1", loads)
	}
	// The fixture deliberately contains findings: a zero-diagnostic run
	// would mean the driver skipped the analyzers, not that they passed.
	if len(diags) == 0 {
		t.Error("driver produced no diagnostics on a fixture with known findings")
	}
}
