package cs2

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/ranks"
)

func TestDefaultArchParameters(t *testing.T) {
	// the constants must describe one coherent machine
	if NumBanks*BankBytes != SRAMBytes {
		t.Errorf("banks %d×%d B != SRAM %d B", NumBanks, BankBytes, SRAMBytes)
	}
	if UsableX > GridX || UsableY > GridY {
		t.Errorf("usable region %dx%d exceeds fabric %dx%d", UsableX, UsableY, GridX, GridY)
	}
	// §6.5 constants
	if UsablePEs != 745500 {
		t.Errorf("usable PEs %d, want 745500", UsablePEs)
	}
	if ClockHz != 850e6 {
		t.Errorf("clock %g", ClockHz)
	}
	if SRAMBytes != 49152 || NumBanks != 8 || BankBytes != 6144 {
		t.Error("SRAM banking wrong")
	}
	// 48 systems = the paper's 35,784,000 PEs
	if 48*UsablePEs != 35784000 {
		t.Errorf("48 systems give %d PEs", 48*UsablePEs)
	}
}

func TestAccessFormulas(t *testing.T) {
	// §6.6 worked example: M×N MVM in single precision
	m, n := 10, 7
	if RelativeBytes(m, n) != 4*(70+10+7) {
		t.Errorf("RelativeBytes = %d", RelativeBytes(m, n))
	}
	if AbsoluteBytes(m, n) != 4*(3*70+7) {
		t.Errorf("AbsoluteBytes = %d", AbsoluteBytes(m, n))
	}
	if FMACs(m, n) != 70 {
		t.Error("FMACs")
	}
}

func TestAbsoluteToRelativeRatioApproachesThree(t *testing.T) {
	// §7.1: the absolute bandwidth shows ~3X the relative for large tiles
	n := 512
	ratio := float64(AbsoluteBytes(n, n)) / float64(RelativeBytes(n, n))
	if math.Abs(ratio-3) > 0.02 {
		t.Errorf("ratio %g, want ≈3", ratio)
	}
}

func TestMVMCyclesMonotone(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -(seed + 1)
		}
		m := int(seed%64) + 1
		n := int((seed/64)%64) + 1
		c := MVMCycles(m, n)
		// strictly more work ⇒ strictly more cycles
		return MVMCycles(m+1, n) > c && MVMCycles(m, n+1) > c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMVMCyclesZeroWork(t *testing.T) {
	if MVMCycles(0, 5) != 0 || MVMCycles(5, 0) != 0 {
		t.Error("degenerate MVM should cost nothing")
	}
}

func TestStrategyOneProgramFitsSRAM(t *testing.T) {
	// The paper's strategy 1 (§6.7): 8 real MVMs on one PE — 4 of sw×nb
	// (V bases) and 4 of nb×sw (U bases) — must fit 48 kB for each Table 1
	// configuration. Re/Im parts of V and U are each stored once and
	// reused by two MVMs, so the resident bases are four sw×nb FP32
	// planes, half the naive per-MVM sum.
	for _, r := range ranks.PaperSixShard {
		nb, sw := r.NB, r.StackWidth
		physical := 4 * sw * nb * 4
		if physical > SRAMBytes {
			t.Errorf("nb=%d sw=%d: %d B exceeds SRAM", nb, sw, physical)
		}
		// and it should use a substantial fraction ("max out the SRAM")
		if sw*nb >= 1600 && physical < SRAMBytes/4 {
			t.Errorf("nb=%d sw=%d: only %d B of SRAM used", nb, sw, physical)
		}
	}
}

func TestCycleModelNearPaperWorstCounts(t *testing.T) {
	// Table 2 worst cycle counts for the five validated configurations,
	// modelled with ChunkCycles (strategy 1). The tiles-per-chunk values
	// follow from the Fig. 12 rank layouts (≈ sw / mean tile rank + 1).
	// The model is calibrated for shape, not exactness: every prediction
	// must land within the published value's tolerance.
	tilesPerChunk := map[int]int{25: 37, 50: 10, 70: 6}
	for _, r := range ranks.PaperSixShard {
		got := ChunkCycles(r.NB, r.StackWidth, tilesPerChunk[r.NB])
		if !r.Cycles.Admits(float64(got)) {
			t.Errorf("nb=%d sw=%d: modelled %d cycles vs paper %.0f (%+.0f%%, tolerance %.0f%%)",
				r.NB, r.StackWidth, got, r.Cycles.Value, 100*r.Cycles.Delta(float64(got)), 100*r.Cycles.Tol)
		}
	}
}

func TestBandwidthAggregation(t *testing.T) {
	// 1 GB moved in 850 cycles = 1 GB / microsecond = 1e15 B/s
	bw := Bandwidth(1<<30, 850)
	if math.Abs(bw-float64(1<<30)*1e6) > 1e9 {
		t.Errorf("Bandwidth = %g", bw)
	}
	if Bandwidth(100, 0) != 0 {
		t.Error("zero cycles should give zero bandwidth")
	}
}

func TestFlopRate(t *testing.T) {
	// 1000 FMACs = 2000 flops in 850e6 cycles (1 s) = 2000 flop/s
	if got := FlopRate(1000, int64(ClockHz)); math.Abs(got-2000) > 1e-9 {
		t.Errorf("FlopRate = %g", got)
	}
}

func TestSeconds(t *testing.T) {
	if got := Seconds(850e6); math.Abs(got-1) > 1e-12 {
		t.Errorf("Seconds = %g", got)
	}
}

func TestPowerModelCalibration(t *testing.T) {
	// §7.6: a fully-active wafer draws ≈16 kW on TLR-MVM
	w := SystemWatts(UsablePEs)
	if w < 15000 || w > 17000 {
		t.Errorf("full wafer draws %g W, want ≈16 kW", w)
	}
	// efficiency: 16 kW at ~630 TFlop/s/system → ≈36–40 GFlop/s/W
	eff := 630e12 / w
	if eff < 30e9 || eff > 45e9 {
		t.Errorf("efficiency %g flop/s/W outside the paper's regime", eff)
	}
}

func TestPowerMonotoneInActivePEs(t *testing.T) {
	if SystemWatts(100) >= SystemWatts(1000) {
		t.Error("power must grow with active PEs")
	}
}

func TestRelativeBandwidthSaturatesNearTwoPBs(t *testing.T) {
	// Fig. 14: with constant-size N×N MVMs on all 745,500 PEs, the
	// relative bandwidth saturates around 2 PB/s for large N.
	n := 128
	cycles := MVMCycles(n, n)
	perPE := Bandwidth(RelativeBytes(n, n), cycles)
	agg := perPE * UsablePEs
	fig := ranks.PaperFig14
	if !fig.SaturatedRelPBps.Admits(agg / 1e15) {
		t.Errorf("saturated relative bandwidth %g PB/s, want ≈%g", agg/1e15, fig.SaturatedRelPBps.Value)
	}
	// and the absolute metric must be ≈3X
	aggAbs := Bandwidth(AbsoluteBytes(n, n), cycles) * UsablePEs
	if r := aggAbs / agg; !fig.AbsOverRel.Admits(r) {
		t.Errorf("absolute/relative ratio %g, want ≈%g", r, fig.AbsOverRel.Value)
	}
}

// TestPaperDisagreesWithItself: the paper's Table 2 relative bytes ×
// 850 MHz ÷ its Table 2 worst cycles should be Table 3's relative
// bandwidth, by the aggregation rule Bandwidth implements. On the five
// six-shard rows it differs by −7.6 … +4.1 %, more than the tables'
// rounding allows. No model can land closer to both tables than that, so
// it is the floor under every relative-bandwidth tolerance.
func TestPaperDisagreesWithItself(t *testing.T) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range ranks.PaperSixShard {
		derived := Bandwidth(int64(r.RelBytes.Value), int64(r.Cycles.Value)) / 1e15
		d := r.RelPBps.Delta(derived)
		lo, hi = min(lo, d), max(hi, d)
	}
	if got := fmt.Sprintf("%+.1f … %+.1f %%", 100*lo, 100*hi); got != "-7.6 … +4.1 %" {
		t.Errorf("Table 2 bytes over cycles differ from Table 3 by %s, want -7.6 … +4.1 %%", got)
	}
	floor := max(-lo, hi)
	for _, rows := range [][]ranks.PaperRow{ranks.PaperSixShard, ranks.PaperStrongScaling, ranks.PaperFortyEight} {
		for _, r := range rows {
			if r.RelPBps.Tol < floor {
				t.Errorf("%+v: relative bandwidth tolerance %.0f%% is below the paper's own %.1f%% disagreement",
					r.PaperPlan, 100*r.RelPBps.Tol, 100*floor)
			}
		}
	}
}
