package main

import (
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/ranks"
)

// The Δ and the out-of-tolerance mark are what make REPORT.md a gate:
// a cell must carry the signed deviation, and the mark exactly when the
// deviation exceeds the tolerance.
func TestCellMarksOnlyOutOfTolerance(t *testing.T) {
	p := ranks.Published{Value: 3.77, Tol: 0.25}
	for _, c := range []struct {
		model  float64
		want   string
		marked bool
	}{
		{4.60, "3.77 / 4.60 +22.0% (±25%)", false},
		{3.00, "3.77 / 3.00 -20.4% (±25%)", false},
		{4.80, "3.77 / 4.80 +27.3% (±25%)" + outOfTolerance, true},
		{2.80, "3.77 / 2.80 -25.7% (±25%)" + outOfTolerance, true},
	} {
		got := cell("%.2f", p, c.model)
		if got != c.want {
			t.Errorf("cell(%g) = %q, want %q", c.model, got, c.want)
		}
		if strings.HasSuffix(got, outOfTolerance) != c.marked {
			t.Errorf("cell(%g) = %q: marked %v, want %v", c.model, got, !c.marked, c.marked)
		}
	}
	// |Δ| = tolerance is admitted (values exact in binary)
	if got, want := cell("%.0f", ranks.Published{Value: 4, Tol: 0.25}, 5), "4 / 5 +25.0% (±25%)"; got != want {
		t.Errorf("cell at the edge = %q, want %q", got, want)
	}
}

func TestBandRowMarksOutsideTheInterval(t *testing.T) {
	b := ranks.Band{Value: 36.50, Lo: 28, Hi: 52}
	in := bandRow("energy efficiency", "%.2f", "%.2f", "GFlop/s/W", b, 48.65)
	if want := "| energy efficiency | 36.50 GFlop/s/W | 48.65 GFlop/s/W | +33.3% | 28–52 GFlop/s/W |"; in != want {
		t.Errorf("bandRow inside = %q, want %q", in, want)
	}
	if out := bandRow("energy efficiency", "%.2f", "%.2f", "GFlop/s/W", b, 52.5); !strings.Contains(out, "+43.8%"+outOfTolerance) {
		t.Errorf("bandRow outside = %q, want the mark after the Δ", out)
	}
	// a claim with only a lower bound (§7.5's "more than 3×")
	open := ranks.Band{Value: 3, Lo: 3, Hi: math.Inf(1)}
	if got, want := bandRow("over peak", "> %g", "%.2f", "×", open, 2.99), "| over peak | > 3 × | 2.99 × | -0.3%"+outOfTolerance+" | ≥ 3 × |"; got != want {
		t.Errorf("bandRow below an open band = %q, want %q", got, want)
	}
	if got := bandRow("over peak", "> %g", "%.2f", "×", open, 3.32); strings.Contains(got, outOfTolerance) {
		t.Errorf("bandRow inside an open band = %q, want no mark", got)
	}
}

// TestModelReportIsCommittedPrefix is the tier-1 half of `make
// report-check`: the model-only report must be, byte for byte, the
// committed REPORT.md up to the laptop-scale section, so a model change
// that moves a published comparison inside its tolerance (doubling
// cs2.CyclesPerMVM moves 29 rows and fails no other test) cannot pass
// `go test ./...` without the report showing it. The -full tail stays
// with `make report-check`.
func TestModelReportIsCommittedPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrates every paper-scale rank distribution (~10 s)")
	}
	committed, err := os.ReadFile("../../REPORT.md")
	if err != nil {
		t.Fatal(err)
	}
	want, _, ok := strings.Cut(string(committed), mddHeading)
	if !ok {
		t.Fatalf("REPORT.md has no %q section; regenerate it with `make report`", strings.TrimSpace(mddHeading))
	}
	got := build(false)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("REPORT.md is stale (run `make report`); first difference at line %d:\n committed: %s\n      model: %s", i+1, wl[i], gl[i])
		}
	}
	t.Fatalf("REPORT.md is stale (run `make report`): model section is %d lines, committed %d", len(gl), len(wl))
}
