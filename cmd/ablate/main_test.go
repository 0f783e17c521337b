package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/seismic"
)

// TestSolversAblationSmoke: the LSQR-vs-CGLS table builds its problem
// through the pipeline builder and prints a row per solver per budget.
func TestSolversAblationSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := solversAblation(&out, seismic.Options{Geom: seismic.DefaultGeometry()}); err != nil {
		t.Fatal(err)
	}
	for _, solver := range []string{"lsqr", "cgls"} {
		if n := strings.Count(out.String(), solver+" "); n != 2 {
			t.Errorf("%d %s rows, want 2 (10 and 30 iterations):\n%s", n, solver, out.String())
		}
	}
}
