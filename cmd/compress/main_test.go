package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/seismic"
)

// TestOrderingAblationSmoke: one row per ordering, each through the
// pipeline builder on one generated survey. No ranking is asserted — at
// the default survey's 2×2 tiles the curves do not separate.
func TestOrderingAblationSmoke(t *testing.T) {
	sv, err := core.NewSurvey(seismic.Options{Geom: seismic.DefaultGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := orderingAblation(&out, sv); err != nil {
		t.Fatal(err)
	}
	for _, ord := range []string{"shuffled", "natural", "morton", "hilbert"} {
		if n := strings.Count(out.String(), ord+" "); n != 1 {
			t.Errorf("%d rows for ordering %q, want 1:\n%s", n, ord, out.String())
		}
	}
}
