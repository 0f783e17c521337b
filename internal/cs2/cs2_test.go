package cs2

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/ranks"
)

func TestDefaultArchParameters(t *testing.T) {
	a := DefaultArch()
	if err := a.Validate(); err != nil {
		t.Fatalf("default arch invalid: %v", err)
	}
	// §6.5 constants
	if a.UsablePEs() != 745500 {
		t.Errorf("usable PEs %d, want 745500", a.UsablePEs())
	}
	if a.TotalPEs() != 757*996 {
		t.Errorf("total PEs %d", a.TotalPEs())
	}
	if a.ClockHz != 850e6 {
		t.Errorf("clock %g", a.ClockHz)
	}
	if a.SRAMBytes != 49152 || a.NumBanks != 8 || a.BankBytes != 6144 {
		t.Error("SRAM banking wrong")
	}
	// 48 systems = the paper's 35,784,000 PEs
	if 48*a.UsablePEs() != 35784000 {
		t.Errorf("48 systems give %d PEs", 48*a.UsablePEs())
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	a := DefaultArch()
	a.UsableX = a.GridX + 1
	if a.Validate() == nil {
		t.Error("oversized usable region should fail")
	}
	b := DefaultArch()
	b.NumBanks = 7
	if b.Validate() == nil {
		t.Error("bank mismatch should fail")
	}
	c := DefaultArch()
	c.ClockHz = 0
	if c.Validate() == nil {
		t.Error("zero clock should fail")
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

func TestPEProgramAggregation(t *testing.T) {
	p := PEProgram{MVMs: []MVM{{M: 64, N: 25}, {M: 25, N: 64}}, ExtraSRAMBytes: 1000}
	wantCycles := MVMCycles(64, 25) + MVMCycles(25, 64)
	if p.Cycles() != wantCycles {
		t.Error("Cycles aggregation")
	}
	if p.RelativeBytes() != RelativeBytes(64, 25)+RelativeBytes(25, 64) {
		t.Error("RelativeBytes aggregation")
	}
	if p.AbsoluteBytes() != AbsoluteBytes(64, 25)+AbsoluteBytes(25, 64) {
		t.Error("AbsoluteBytes aggregation")
	}
	if p.FMACs() != 2*64*25 {
		t.Error("FMACs aggregation")
	}
	if p.MatrixSRAMBytes() != 4*2*64*25 {
		t.Error("MatrixSRAMBytes")
	}
	if p.SRAMBytes() != 4*2*64*25+1000 {
		t.Error("SRAMBytes")
	}
}

func TestStrategyOneProgramFitsSRAM(t *testing.T) {
	// The paper's strategy 1 (§6.7): 8 real MVMs on one PE — 4 of sw×nb
	// (V bases) and 4 of nb×sw (U bases) — must fit 48 kB for each Table 1
	// configuration.
	a := DefaultArch()
	for _, r := range ranks.PaperSixShard {
		nb, sw := r.NB, r.StackWidth
		var mvms []MVM
		for i := 0; i < 4; i++ {
			mvms = append(mvms, MVM{M: sw, N: nb})
			mvms = append(mvms, MVM{M: nb, N: sw})
		}
		p := PEProgram{MVMs: mvms}
		// Re/Im parts of V and U are each stored once and reused by two
		// MVMs: physical storage is half the naive per-MVM sum.
		physical := p.MatrixSRAMBytes() / 2
		if physical > a.SRAMBytes {
			t.Errorf("nb=%d sw=%d: %d B exceeds SRAM", nb, sw, physical)
		}
		// and it should use a substantial fraction ("max out the SRAM")
		if sw*nb >= 1600 && physical < a.SRAMBytes/4 {
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
	a := DefaultArch()
	// 1 GB moved in 850 cycles = 1 GB / microsecond = 1e15 B/s
	bw := a.Bandwidth(1<<30, 850)
	if math.Abs(bw-float64(1<<30)*1e6) > 1e9 {
		t.Errorf("Bandwidth = %g", bw)
	}
	if a.Bandwidth(100, 0) != 0 {
		t.Error("zero cycles should give zero bandwidth")
	}
}

func TestFlopRate(t *testing.T) {
	a := DefaultArch()
	// 1000 FMACs = 2000 flops in 850e6 cycles (1 s) = 2000 flop/s
	if got := a.FlopRate(1000, int64(a.ClockHz)); math.Abs(got-2000) > 1e-9 {
		t.Errorf("FlopRate = %g", got)
	}
}

func TestSeconds(t *testing.T) {
	a := DefaultArch()
	if got := a.Seconds(850e6); math.Abs(got-1) > 1e-12 {
		t.Errorf("Seconds = %g", got)
	}
}

func TestPowerModelCalibration(t *testing.T) {
	// §7.6: a fully-active wafer draws ≈16 kW on TLR-MVM
	pm := DefaultPowerModel()
	w := pm.SystemWatts(DefaultArch().UsablePEs())
	if w < 15000 || w > 17000 {
		t.Errorf("full wafer draws %g W, want ≈16 kW", w)
	}
	// efficiency: 16 kW at ~630 TFlop/s/system → ≈36–40 GFlop/s/W
	eff := pm.Efficiency(630e12, DefaultArch().UsablePEs())
	if eff < 30e9 || eff > 45e9 {
		t.Errorf("efficiency %g flop/s/W outside the paper's regime", eff)
	}
}

func TestPowerMonotoneInActivePEs(t *testing.T) {
	pm := DefaultPowerModel()
	if pm.SystemWatts(100) >= pm.SystemWatts(1000) {
		t.Error("power must grow with active PEs")
	}
}

func TestRelativeBandwidthSaturatesNearTwoPBs(t *testing.T) {
	// Fig. 14: with constant-size N×N MVMs on all 745,500 PEs, the
	// relative bandwidth saturates around 2 PB/s for large N.
	a := DefaultArch()
	n := 128
	cycles := MVMCycles(n, n)
	perPE := a.Bandwidth(RelativeBytes(n, n), cycles)
	agg := perPE * float64(a.UsablePEs())
	fig := ranks.PaperFig14
	if !fig.SaturatedRelPBps.Admits(agg / 1e15) {
		t.Errorf("saturated relative bandwidth %g PB/s, want ≈%g", agg/1e15, fig.SaturatedRelPBps.Value)
	}
	// and the absolute metric must be ≈3X
	aggAbs := a.Bandwidth(AbsoluteBytes(n, n), cycles) * float64(a.UsablePEs())
	if r := aggAbs / agg; !fig.AbsOverRel.Admits(r) {
		t.Errorf("absolute/relative ratio %g, want ≈%g", r, fig.AbsOverRel.Value)
	}
}

func BenchmarkProgramCycles(b *testing.B) {
	p := PEProgram{MVMs: []MVM{{64, 25}, {64, 25}, {64, 25}, {64, 25}, {25, 64}, {25, 64}, {25, 64}, {25, 64}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Cycles()
	}
}
