package wse

import (
	"testing"

	"repro/internal/cs2"
	"repro/internal/ranks"
)

// paper calibrates each Fig. 12 configuration once for the whole package
// (the nb=25 layouts take ~1 s each).
var paper PaperModel

func dist(t testing.TB, cfg ranks.Config) *ranks.Distribution {
	t.Helper()
	d, err := paper.Dist(cfg)
	if err != nil {
		t.Fatalf("%v: %v", cfg, err)
	}
	return d
}

func evalOrDie(t testing.TB, p Plan) *Metrics {
	t.Helper()
	m, err := p.Evaluate()
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	return m
}

// evalPaper evaluates one published row's deployment.
func evalPaper(t testing.TB, r ranks.PaperRow) *Metrics {
	t.Helper()
	m, err := paper.Evaluate(r.PaperPlan)
	if err != nil {
		t.Fatalf("%+v: %v", r.PaperPlan, err)
	}
	return m
}

// within holds the model to a published value's tolerance.
func within(t *testing.T, r ranks.PaperRow, name string, got float64, want ranks.Published) {
	t.Helper()
	if !want.Admits(got) {
		t.Errorf("%v on %d systems, %s: got %.4g, paper %.4g (%+.1f%%, tolerance %.0f%%)",
			r.Config, r.Systems, name, got, want.Value, 100*want.Delta(got), 100*want.Tol)
	}
}

// Table 1: PEs used and occupancy of the five validated configurations.
func TestTable1Occupancy(t *testing.T) {
	for _, r := range ranks.PaperSixShard {
		m := evalPaper(t, r)
		within(t, r, "PEs", float64(m.PEsUsed), r.PEs)
		within(t, r, "occupancy", m.Occupancy, r.Occupancy)
	}
}

// Table 2: worst cycle counts and memory accesses on six shards.
func TestTable2CyclesAndAccesses(t *testing.T) {
	for _, r := range ranks.PaperSixShard {
		m := evalPaper(t, r)
		within(t, r, "cycles", float64(m.WorstCycles), r.Cycles)
		within(t, r, "relBytes", float64(m.RelativeBytes), r.RelBytes)
		within(t, r, "absBytes", float64(m.AbsoluteBytes), r.AbsBytes)
	}
}

// bandwidths asserts the three Table 3–5 quantities of one row.
func bandwidths(t *testing.T, r ranks.PaperRow, m *Metrics) {
	t.Helper()
	within(t, r, "rel BW", m.RelativeBW/1e15, r.RelPBps)
	within(t, r, "abs BW", m.AbsoluteBW/1e15, r.AbsPBps)
	within(t, r, "PFlop/s", m.FlopRate/1e15, r.PFlops)
}

// Table 3: aggregate bandwidths on six shards.
func TestTable3SixShardBandwidth(t *testing.T) {
	for _, r := range ranks.PaperSixShard {
		bandwidths(t, r, evalPaper(t, r))
	}
}

// Table 4/5 headline: 48-shard strategy-2 runs.
func TestTable5FortyEightShards(t *testing.T) {
	for _, r := range ranks.PaperFortyEight {
		m := evalPaper(t, r)
		bandwidths(t, r, m)
		if m.PEsUsed > int64(r.Systems)*cs2.UsablePEs {
			t.Errorf("%v: PEs %d exceed budget", r.Config, m.PEsUsed)
		}
	}
}

// Table 4: strong scaling of nb=25 acc=1e-4 under strategy 1.
func TestTable4StrongScalingStrategy1(t *testing.T) {
	base := evalPaper(t, ranks.PaperTable4()[0])
	prevBW := base.RelativeBW
	for _, r := range ranks.PaperStrongScaling {
		m := evalPaper(t, r)
		within(t, r, "strong scaling rel BW", m.RelativeBW/1e15, r.RelPBps)
		if m.RelativeBW <= prevBW {
			t.Errorf("bandwidth did not scale: %g → %g PB/s", prevBW/1e15, m.RelativeBW/1e15)
		}
		prevBW = m.RelativeBW
		// ≥90% parallel efficiency (paper: 95% at 20 shards)
		if eff := ParallelEfficiency(base, m); eff < 0.85 || eff > 1.15 {
			t.Errorf("%d shards: parallel efficiency %.2f out of range", r.Systems, eff)
		}
	}
}

func TestStrategy2UsesEightfoldPEs(t *testing.T) {
	cfg := ranks.Config{NB: 70, Acc: 1e-4}
	d := dist(t, cfg)
	m1 := evalOrDie(t, Plan{Dist: d, StackWidth: 23, Systems: 6, Strategy: Strategy1})
	m2 := evalOrDie(t, Plan{Dist: d, StackWidth: 23, Systems: 48, Strategy: Strategy2})
	if m2.PEsUsed != 8*m1.PEsUsed {
		t.Errorf("strategy 2 PEs %d != 8×%d", m2.PEsUsed, m1.PEsUsed)
	}
	if m2.BaseReplication != 2 || m1.BaseReplication != 1 {
		t.Error("base replication factors wrong")
	}
	// strategy 2 must be faster but same traffic
	if m2.WorstCycles >= m1.WorstCycles {
		t.Error("strategy 2 not faster")
	}
	if m2.RelativeBytes != m1.RelativeBytes {
		t.Error("traffic should not depend on strategy")
	}
	// paper: 97% parallel efficiency for the 48-shard strategy-2 run
	if eff := ParallelEfficiency(m1, m2); eff < 0.85 || eff > 1.1 {
		t.Errorf("strategy-2 efficiency %.2f", eff)
	}
}

func TestEvaluateValidation(t *testing.T) {
	d := dist(t, ranks.Config{NB: 70, Acc: 1e-4})
	if _, err := (Plan{Dist: nil, StackWidth: 23, Systems: 6, Strategy: Strategy1}).Evaluate(); err == nil {
		t.Error("nil dist should fail")
	}
	if _, err := (Plan{Dist: d, StackWidth: 0, Systems: 6, Strategy: Strategy1}).Evaluate(); err == nil {
		t.Error("zero stack width should fail")
	}
	if _, err := (Plan{Dist: d, StackWidth: 23, Systems: 0, Strategy: Strategy1}).Evaluate(); err == nil {
		t.Error("zero systems should fail")
	}
	if _, err := (Plan{Dist: d, StackWidth: 23, Systems: 6, Strategy: Strategy(0)}).Evaluate(); err == nil {
		t.Error("unknown strategy should fail")
	}
	// one system cannot hold a 6-system dataset
	if _, err := (Plan{Dist: d, StackWidth: 23, Systems: 1, Strategy: Strategy1}).Evaluate(); err == nil {
		t.Error("over-budget plan should fail")
	}
}

// TestSRAMFitsOnPE: the paper's strategy 1 (§6.7) holds a chunk's four
// real base planes — Vr, Vi, Ur, Ui, each sw×nb — on one PE, so every
// Table 1 configuration must fit 48 kB.
func TestSRAMFitsOnPE(t *testing.T) {
	for _, r := range ranks.PaperSixShard {
		m := evalPaper(t, r)
		if m.PerPEMatrixBytes > cs2.SRAMBytes {
			t.Errorf("%v: %d B of bases exceed 48 kB SRAM", r.Config, m.PerPEMatrixBytes)
		}
		if r.Acc != 1e-4 {
			continue // the looser accuracy's shorter stacks leave SRAM to spare
		}
		// "max out the SRAM": bases alone should use over a third
		if m.PerPEMatrixBytes < cs2.SRAMBytes/3 {
			t.Errorf("%v: only %d B of SRAM used by bases", r.Config, m.PerPEMatrixBytes)
		}
	}
}

func TestSyntheticTileSweepFig14(t *testing.T) {
	pts := SyntheticTileSweep([]int{8, 16, 32, 64, 128})
	// bandwidth rises with tile size and saturates
	for i := 1; i < len(pts); i++ {
		if pts[i].RelativeBW <= pts[i-1].RelativeBW {
			t.Errorf("relative BW not rising at N=%d", pts[i].N)
		}
	}
	last := pts[len(pts)-1]
	fig := ranks.PaperFig14
	if !fig.SaturatedRelPBps.Admits(last.RelativeBW / 1e15) {
		t.Errorf("saturated relative BW %.2f PB/s, want ≈%g", last.RelativeBW/1e15, fig.SaturatedRelPBps.Value)
	}
	if r := last.AbsoluteBW / last.RelativeBW; !fig.AbsOverRel.Admits(r) {
		t.Errorf("absolute/relative ratio %.2f, want ≈%g", r, fig.AbsOverRel.Value)
	}
}

func TestPowerReportSection76(t *testing.T) {
	// §7.6: ≈16 kW and ≈36.5 GFlop/s/W for nb=25, acc=1e-4, sw=64. Our
	// nb=25 flop rate runs ~20% above the paper's (see EXPERIMENTS.md),
	// which propagates into the efficiency figure — hence its band.
	pw := ranks.PaperPower
	p, err := paper.Plan(pw.PaperPlan)
	if err != nil {
		t.Fatal(err)
	}
	rep := p.Power(evalOrDie(t, p))
	if !pw.KW.Admits(rep.Watts / 1e3) {
		t.Errorf("power %g W, paper ≈%g kW", rep.Watts, pw.KW.Value)
	}
	if !pw.GFlopsPerWatt.Admits(rep.GFlopsPerWatt) {
		t.Errorf("efficiency %.1f GFlop/s/W, paper %g", rep.GFlopsPerWatt, pw.GFlopsPerWatt.Value)
	}
}

func TestStrategyString(t *testing.T) {
	if Strategy1.String() == "unknown" || Strategy2.String() == "unknown" {
		t.Error("named strategies should print")
	}
	if Strategy(9).String() != "unknown" {
		t.Error("unknown strategy should print unknown")
	}
}

func BenchmarkEvaluateSixShards(b *testing.B) {
	d := dist(b, ranks.Config{NB: 70, Acc: 1e-4})
	p := Plan{Dist: d, StackWidth: 23, Systems: 6, Strategy: Strategy1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Evaluate(); err != nil {
			b.Fatal(err)
		}
	}
}
