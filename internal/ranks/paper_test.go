package ranks

import (
	"math"
	"testing"
)

// TestPaperTableCensus pins the shape of the published-results table —
// the row counts of each paper table, one declaration per plan — and is
// the "no tolerance widened" rule: every published quantity carries a
// tolerance, and none exceeds the value it was held to when the table
// replaced the per-test literals (PR 18).
func TestPaperTableCensus(t *testing.T) {
	for _, tb := range []struct {
		name string
		rows []PaperRow
		// quantities each row publishes; 0 where it varies (Table 4
		// borrows a full Table 3 row and a Table 5 row)
		want, quantities int
	}{
		{"Tables 1–3", PaperSixShard, 5, 8},
		{"Table 4", PaperTable4(), 5, 0},
		{"Table 5", PaperFortyEight, 3, 3},
	} {
		if len(tb.rows) != tb.want {
			t.Errorf("%s: %d rows, want %d", tb.name, len(tb.rows), tb.want)
		}
		seen := map[PaperPlan]bool{}
		for _, r := range tb.rows {
			if seen[r.PaperPlan] {
				t.Errorf("%s lists %+v twice", tb.name, r.PaperPlan)
			}
			seen[r.PaperPlan] = true
			if _, ok := Fig12TotalBytes[r.Config]; !ok {
				t.Errorf("%s: %v is not a Fig. 12 configuration", tb.name, r.Config)
			}
			flops := 0.15
			if r.NB == 25 {
				flops = 0.25
			}
			bw := 0.15
			if r.Strategy == 1 && r.Systems > 6 {
				bw = 0.18 // Table 4's strong-scaling interior
			}
			published := 0
			for _, q := range []struct {
				name    string
				p       Published
				ceiling float64
			}{
				{"PEs", r.PEs, 0.10}, {"occupancy", r.Occupancy, 0.08},
				{"cycles", r.Cycles, 0.12}, {"relative bytes", r.RelBytes, 0.12}, {"absolute bytes", r.AbsBytes, 0.12},
				{"relative PB/s", r.RelPBps, bw}, {"absolute PB/s", r.AbsPBps, bw}, {"PFlop/s", r.PFlops, flops},
			} {
				if q.p == (Published{}) {
					continue // not in the paper's table for this row
				}
				published++
				if q.p.Value <= 0 || q.p.Tol <= 0 || q.p.Tol > q.ceiling {
					t.Errorf("%s %+v %s: %+v, want a value with 0 < tolerance ≤ %g",
						tb.name, r.PaperPlan, q.name, q.p, q.ceiling)
				}
			}
			if r.RelPBps == (Published{}) || (tb.quantities != 0 && published != tb.quantities) {
				t.Errorf("%s %+v publishes %d quantities, want %d including the relative bandwidth",
					tb.name, r.PaperPlan, published, tb.quantities)
			}
		}
	}

	// §7.6 and Fig. 14 are held to intervals; none may reach outside the
	// one its test asserted before.
	for _, b := range []struct {
		name   string
		b      Band
		lo, hi float64
	}{
		{"§7.6 kW", PaperPower.KW, 14, 18},
		{"§7.6 GFlop/s/W", PaperPower.GFlopsPerWatt, 28, 52},
		{"Fig. 14 saturated relative PB/s", PaperFig14.SaturatedRelPBps, 1.5, 2.5},
		{"Fig. 14 absolute/relative", PaperFig14.AbsOverRel, 2.5, 3.2},
	} {
		if !(b.lo <= b.b.Lo && b.b.Lo < b.b.Value && b.b.Value < b.b.Hi && b.b.Hi <= b.hi) {
			t.Errorf("%s: %+v, want the value strictly inside an interval within [%g, %g]", b.name, b.b, b.lo, b.hi)
		}
	}
	if PaperPower.PaperPlan != PaperSixShard[0].PaperPlan {
		t.Errorf("§7.6 plan %+v is not Table 1's first row", PaperPower.PaperPlan)
	}

	// §7.5 claims "more than three times" two peaks: the bound may not
	// drop below 3, and nothing caps it from above.
	if len(PaperOverPeak) != 2 {
		t.Errorf("§7.5: %d peak comparisons, want Leonardo and Summit", len(PaperOverPeak))
	}
	for _, c := range PaperOverPeak {
		if c.PaperPlan != PaperFortyEight[2].PaperPlan {
			t.Errorf("§7.5 %s: plan %+v is not Table 5's nb=70 row", c.System, c.PaperPlan)
		}
		if c.Ratio.Value != 3 || c.Ratio.Lo < 3 || !math.IsInf(c.Ratio.Hi, 1) {
			t.Errorf("§7.5 %s: %+v, want the paper's > 3× held to [3, +Inf)", c.System, c.Ratio)
		}
	}
}

func TestPublishedAdmitsAtTheEdge(t *testing.T) {
	p := Published{Value: 100, Tol: 0.10}
	for _, c := range []struct {
		model float64
		ok    bool
	}{{100, true}, {110, true}, {90, true}, {110.5, false}, {89.5, false}} {
		if p.Admits(c.model) != c.ok {
			t.Errorf("Admits(%g) = %v with Δ %+.3f, tolerance %g", c.model, !c.ok, p.Delta(c.model), p.Tol)
		}
	}
	b := Band{Value: 36.5, Lo: 28, Hi: 52}
	if !b.Admits(28) || !b.Admits(52) || b.Admits(27.9) || b.Admits(52.1) {
		t.Errorf("Band %+v does not admit exactly its closed interval", b)
	}
}
