package analysis

import (
	"os"
	"path/filepath"
)

// MissingFixtures returns the registered analyzers that have no fixture
// module under testdataDir (no testdata/<name>/go.mod). Every analyzer
// must ship `// want` fixtures; repolint fails the
// whole run when one is missing so a new analyzer cannot land unpinned,
// and TestFixtureDrift keeps the same invariant in `go test`.
func MissingFixtures(testdataDir string) []string {
	var missing []string
	for _, a := range All() {
		if _, err := os.Stat(filepath.Join(testdataDir, a.Name, "go.mod")); err != nil {
			missing = append(missing, a.Name)
		}
	}
	return missing
}
