package roofline

import (
	"math"
	"strings"
	"testing"
)

// attainable is the roofline ceiling at arithmetic intensity ai
// (flop/byte): min(peak compute, ai × peak bandwidth).
func attainable(m Machine, ai float64) float64 { return min(m.PeakFlops(), ai*m.PeakBW()) }

func findMachine(t *testing.T, ms []Machine, substr string) Machine {
	t.Helper()
	for _, m := range ms {
		if strings.Contains(m.Name, substr) {
			return m
		}
	}
	t.Fatalf("machine %q not found", substr)
	return Machine{}
}

func TestFig15CeilingsMatchPaperLabels(t *testing.T) {
	ms := Fig15Machines()
	cs2 := findMachine(t, ms, "Cerebras")
	// Fig. 15 labels: 120 PB/s memory ceiling and 10.2 PFlop/s for 6 CS-2
	if math.Abs(cs2.PeakBW()-120e15) > 1e12 {
		t.Errorf("six CS-2 peak BW %g", cs2.PeakBW())
	}
	if math.Abs(cs2.PeakFlops()-10.2e15) > 1e12 {
		t.Errorf("six CS-2 peak flops %g", cs2.PeakFlops())
	}
}

func TestFig16CeilingsMatchPaperLabels(t *testing.T) {
	ms := Fig16Machines()
	cg := findMachine(t, ms, "Condor Galaxy")
	// Fig. 16 labels: 960 PB/s and 81.6 PFlop/s for 48 CS-2
	if math.Abs(cg.PeakBW()-960e15) > 1e13 {
		t.Errorf("Condor Galaxy peak BW %g", cg.PeakBW())
	}
	if math.Abs(cg.PeakFlops()-81.6e15) > 1e13 {
		t.Errorf("Condor Galaxy peak flops %g", cg.PeakFlops())
	}
}

func TestPaperBandwidthComparisons(t *testing.T) {
	// §7.5: 92.58 PB/s is "more than 3X faster than the aggregated
	// theoretical bandwidth of Leonardo or Summit"
	ms := Fig16Machines()
	leonardo := findMachine(t, ms, "Leonardo")
	summit := findMachine(t, ms, "Summit")
	measured := 92.58e15
	if r := measured / leonardo.PeakBW(); r < 3 {
		t.Errorf("vs Leonardo only %.2fX", r)
	}
	if r := measured / summit.PeakBW(); r < 3 {
		t.Errorf("vs Summit only %.2fX", r)
	}
	// and it outperforms Frontier's constant-rank estimate (69.01 PB/s)
	// while trailing Fugaku's (95.38 PB/s)
	ests := ConstantRankEstimates()
	var fugaku, frontier Point
	for _, p := range ests {
		if strings.Contains(p.Name, "Fugaku") {
			fugaku = p
		}
		if strings.Contains(p.Name, "Frontier") {
			frontier = p
		}
	}
	if !(measured > frontier.BW && measured < fugaku.BW) {
		t.Errorf("92.58 PB/s should sit between Frontier %.2f and Fugaku %.2f PB/s",
			frontier.BW/1e15, fugaku.BW/1e15)
	}
}

func TestAttainableRoofline(t *testing.T) {
	m := Machine{Name: "test", Units: 1, BWPerUnit: 100, FlopsPerUnit: 1000}
	// memory-bound region: attainable = ai × bw
	if got := attainable(m, 1); got != 100 {
		t.Errorf("Attainable(1) = %g", got)
	}
	// compute-bound region: attainable = peak flops
	if got := attainable(m, 100); got != 1000 {
		t.Errorf("Attainable(100) = %g", got)
	}
	// ridge at ai = 10
	if m.RidgeAI() != 10 {
		t.Errorf("ridge %g", m.RidgeAI())
	}
	if got := attainable(m, m.RidgeAI()); got != 1000 {
		t.Errorf("ceiling at ridge %g", got)
	}
}

func TestCS2DominatesVendorBandwidth(t *testing.T) {
	// §7.5: "more than three orders of magnitude higher bandwidth than the
	// bandwidth achieved on an AMD MI250X" — at the peak level the six
	// CS-2s have ≈37500X one MI250X's bandwidth; check ≥1000X
	ms := Fig15Machines()
	cs2 := findMachine(t, ms, "Cerebras")
	mi := findMachine(t, ms, "MI250X")
	if r := cs2.PeakBW() / mi.PeakBW(); r < 1000 {
		t.Errorf("CS-2/MI250X bandwidth ratio %g", r)
	}
}

func TestNewPointDerivesAI(t *testing.T) {
	p := NewPoint("x", 4.16e15, 12.26e15)
	if math.Abs(p.AI-4.16/12.26) > 1e-9 {
		t.Errorf("AI = %g", p.AI)
	}
	z := NewPoint("zero", 1, 0)
	if z.AI != 0 {
		t.Error("zero-bandwidth point should have AI 0")
	}
}

func TestMachineString(t *testing.T) {
	s := cerebras.String()
	if !strings.Contains(s, "CS-2") {
		t.Errorf("String = %q", s)
	}
}

// TestFiguresAgreeOnEachChip holds Figs. 15 and 16 to one pair of
// per-unit peaks for every chip they both aggregate.
func TestFiguresAgreeOnEachChip(t *testing.T) {
	for _, chip := range []Machine{cerebras, mi250x, a100, a64fx} {
		var n [2]int
		for fig, figure := range [][]Machine{Fig15Machines(), Fig16Machines()} {
			for _, m := range figure {
				if !strings.Contains(m.Name, chip.Name) {
					continue
				}
				n[fig]++
				if m.BWPerUnit != chip.BWPerUnit || m.FlopsPerUnit != chip.FlopsPerUnit {
					t.Errorf("%s: %g B/s and %g flop/s per unit, want %s's %g and %g",
						m.Name, m.BWPerUnit, m.FlopsPerUnit, chip.Name, chip.BWPerUnit, chip.FlopsPerUnit)
				}
			}
		}
		if n[0] == 0 || n[1] == 0 {
			t.Errorf("%s: %d rows in Fig. 15 and %d in Fig. 16; want both figures to aggregate it", chip.Name, n[0], n[1])
		}
	}
}

func TestOperatingPointsBelowCeilings(t *testing.T) {
	// the measured relative TLR-MVM point must sit under the CS-2 roof
	six := findMachine(t, Fig15Machines(), "Cerebras")
	pt := NewPoint("TLR-MVM 6 CS-2", 4.16e15, 12.26e15)
	if pt.Flops > attainable(six, pt.AI) {
		t.Errorf("operating point %g above ceiling %g", pt.Flops, attainable(six, pt.AI))
	}
	cg := findMachine(t, Fig16Machines(), "Condor Galaxy")
	rel := NewPoint("TLR-MVM 48 CS-2 relative", 37.95e15, 92.58e15)
	abs := NewPoint("TLR-MVM 48 CS-2 absolute", 37.95e15, 245.59e15)
	for _, p := range []Point{rel, abs} {
		if p.Flops > attainable(cg, p.AI)*1.0001 {
			t.Errorf("%s above the 48-system roof", p.Name)
		}
	}
}
