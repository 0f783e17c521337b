package main

import (
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
}
