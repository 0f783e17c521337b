package bsp

import (
	"sync"
	"testing"

	"repro/internal/ranks"
)

var (
	distOnce sync.Once
	distVal  *ranks.Distribution
	distErr  error
)

func testDist(t testing.TB) *ranks.Distribution {
	t.Helper()
	distOnce.Do(func() {
		distVal, distErr = ranks.NewCustom(ranks.Params{
			NB: 16, Rows: 640, Cols: 480, NumFreqs: 8, TargetBytes: 3e6,
		})
	})
	if distErr != nil {
		t.Fatal(distErr)
	}
	return distVal
}

func TestThreePhaseBreakdown(t *testing.T) {
	d := testDist(t)
	p, err := threePhase(d, 8, DefaultFabric())
	if err != nil {
		t.Fatal(err)
	}
	if p.VBatch <= 0 || p.UBatch <= 0 || p.Shuffle <= 0 || p.Barriers <= 0 {
		t.Fatalf("all phases must be positive: %+v", p)
	}
	if p.Total() != p.VBatch+p.Shuffle+p.UBatch+p.Barriers {
		t.Error("Total inconsistent")
	}
	if f := p.shuffleFraction(); f <= 0 || f >= 1 {
		t.Errorf("shuffle fraction %g out of (0,1)", f)
	}
}

func TestCommAvoidingWinsWithDefaultFabric(t *testing.T) {
	// §5.3's claim: removing the shuffle (and its BSP barriers) beats the
	// three-phase schedule even though the U phase pays per-tile y swaps.
	d := testDist(t)
	c, err := Compare(d, 8, DefaultFabric())
	if err != nil {
		t.Fatal(err)
	}
	if c.Speedup <= 1 {
		t.Errorf("communication avoidance should win: speedup %g", c.Speedup)
	}
	if c.ShuffleShare <= 0 {
		t.Error("shuffle share should be positive for the three-phase run")
	}
}

func TestFreeFabricClosesTheGap(t *testing.T) {
	// with an (unphysical) instantaneous fabric, the three-phase schedule
	// loses only the per-tile y overhead — the gap must shrink
	d := testDist(t)
	real, err := Compare(d, 8, DefaultFabric())
	if err != nil {
		t.Fatal(err)
	}
	free, err := Compare(d, 8, Fabric{BytesPerCycle: 1e12, BarrierCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	if free.Speedup >= real.Speedup {
		t.Errorf("free fabric should shrink the gap: %g vs %g", free.Speedup, real.Speedup)
	}
}

func TestBarrierCostDominatesSmallChunks(t *testing.T) {
	// small stack widths make compute tiny while barriers stay constant:
	// the shuffle share must grow as sw shrinks
	d := testDist(t)
	big, err := threePhase(d, 16, DefaultFabric())
	if err != nil {
		t.Fatal(err)
	}
	small, err := threePhase(d, 2, DefaultFabric())
	if err != nil {
		t.Fatal(err)
	}
	if small.shuffleFraction() <= big.shuffleFraction() {
		t.Errorf("shuffle share should grow for small chunks: %g vs %g",
			small.shuffleFraction(), big.shuffleFraction())
	}
}

func TestValidation(t *testing.T) {
	d := testDist(t)
	if _, err := threePhase(d, 0, DefaultFabric()); err == nil {
		t.Error("zero stack width should fail")
	}
	if _, err := threePhase(d, 4, Fabric{BytesPerCycle: 0}); err == nil {
		t.Error("zero fabric bandwidth should fail")
	}
	if _, err := commAvoiding(d, -1); err == nil {
		t.Error("negative stack width should fail")
	}
	if _, err := Compare(d, 0, DefaultFabric()); err == nil {
		t.Error("Compare should propagate validation errors")
	}
}

func BenchmarkCompare(b *testing.B) {
	d := testDist(b)
	f := DefaultFabric()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compare(d, 8, f); err != nil {
			b.Fatal(err)
		}
	}
}
