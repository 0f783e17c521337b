package wsesim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cfloat"
	"repro/internal/cs2"
	"repro/internal/dense"
	"repro/internal/tlr"
)

// smoothMatrix builds a compressible test matrix (sum of smooth outer
// products), like the Hilbert-sorted frequency slices.
func smoothMatrix(rng *rand.Rand, m, n int) *dense.Matrix {
	a := dense.New(m, n)
	for t := 0; t < 5; t++ {
		fu := 0.5 + rng.Float64()*2
		fv := 0.5 + rng.Float64()*2
		amp := math.Pow(0.6, float64(t))
		for j := 0; j < n; j++ {
			vj := complex(amp*math.Cos(fv*float64(j)/float64(n)*math.Pi),
				amp*math.Sin(fv*float64(j)/float64(n)*math.Pi))
			for i := 0; i < m; i++ {
				ui := complex(math.Cos(fu*float64(i)/float64(m)*math.Pi),
					math.Sin(fu*float64(i)/float64(m)*math.Pi))
				a.Set(i, j, a.At(i, j)+complex64(ui*vj))
			}
		}
	}
	return a
}

func buildMachine(t *testing.T, m, n, nb, sw int, tol float64) (*Machine, *tlr.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	a := smoothMatrix(rng, m, n)
	tm, err := tlr.Compress(a, tlr.Options{NB: nb, Tol: tol})
	if err != nil {
		t.Fatal(err)
	}
	mach, err := Build(tm, sw)
	if err != nil {
		t.Fatal(err)
	}
	return mach, tm
}

func TestSimulatedMVMMatchesReference(t *testing.T) {
	// The functional simulator must agree with the reference TLR-MVM.
	for _, cfg := range []struct{ m, n, nb, sw int }{
		{64, 64, 16, 8},
		{96, 80, 16, 5},
		{53, 47, 16, 7},    // ragged edges
		{64, 64, 16, 1},    // single-row chunks
		{64, 64, 16, 1000}, // one chunk per column
	} {
		mach, tm := buildMachine(t, cfg.m, cfg.n, cfg.nb, cfg.sw, 1e-4)
		rng := rand.New(rand.NewSource(int64(cfg.sw)))
		x := dense.Random(rng, cfg.n, 1).Data
		ySim := make([]complex64, cfg.m)
		mach.MulVec(x, ySim)
		yRef := make([]complex64, cfg.m)
		tm.MulVec(x, yRef)
		diff := make([]complex64, cfg.m)
		for i := range diff {
			diff[i] = ySim[i] - yRef[i]
		}
		if rel := cfloat.Nrm2(diff) / cfloat.Nrm2(yRef); rel > 1e-4 {
			t.Errorf("%+v: simulated MVM differs by %g", cfg, rel)
		}
	}
}

func TestChunkPartitionCoversAllRankRows(t *testing.T) {
	mach, tm := buildMachine(t, 96, 80, 16, 6, 1e-3)
	perCol := make(map[int]int)
	for _, pe := range mach.PEs {
		perCol[pe.Chunk.Col] += pe.Chunk.Rows
		var segSum int
		for _, seg := range pe.Chunk.Segments {
			segSum += seg.K
		}
		if segSum != pe.Chunk.Rows {
			t.Fatalf("chunk segments cover %d of %d rows", segSum, pe.Chunk.Rows)
		}
		if pe.Chunk.Rows > mach.SW {
			t.Fatalf("chunk of %d rows exceeds stack width %d", pe.Chunk.Rows, mach.SW)
		}
	}
	for j := 0; j < tm.NT; j++ {
		var want int // the stacked V height of tile column j
		for i := 0; i < tm.MT; i++ {
			want += tm.Tile(i, j).Rank()
		}
		if perCol[j] != want {
			t.Errorf("column %d covers %d rank rows, want %d", j, perCol[j], want)
		}
	}
}

func TestPEImagesFitSRAM(t *testing.T) {
	mach, _ := buildMachine(t, 96, 80, 16, 8, 1e-4)
	if w := mach.WorstSRAM(); w > cs2.SRAMBytes {
		t.Errorf("worst PE image %d B exceeds SRAM", w)
	}
	if mach.NumPEs() == 0 {
		t.Fatal("no PEs")
	}
}

func TestBuildRejectsOversizedChunks(t *testing.T) {
	// a stack width so large that a full column's bases exceed 48 kB must
	// be rejected at Build time; nb large ⇒ more bytes per rank-row
	rng := rand.New(rand.NewSource(1))
	a := dense.Random(rng, 512, 512) // noise: full-rank tiles
	tm, err := tlr.Compress(a, tlr.Options{NB: 128, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(tm, 512); err == nil {
		t.Error("expected SRAM overflow error")
	}
}

func TestBuildValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := smoothMatrix(rng, 32, 32)
	tm, _ := tlr.Compress(a, tlr.Options{NB: 16, Tol: 1e-3})
	if _, err := Build(tm, 0); err == nil {
		t.Error("zero stack width should fail")
	}
}

func TestMeteredTrafficMatchesAbsoluteFormula(t *testing.T) {
	// the executed traffic must equal the §6.6 absolute formula summed
	// over the eight real MVMs of every chunk
	mach, _ := buildMachine(t, 64, 64, 16, 8, 1e-3)
	rng := rand.New(rand.NewSource(3))
	x := dense.Random(rng, 64, 1).Data
	y := make([]complex64, 64)
	mach.MulVec(x, y)
	got := mach.TotalMeter()
	var want, wantFMACs int64
	for _, pe := range mach.PEs {
		// 4 V MVMs of (Rows × ColExtent)
		want += 4 * cs2.AbsoluteBytes(pe.Chunk.Rows, pe.ColExtent)
		wantFMACs += 4 * cs2.FMACs(pe.Chunk.Rows, pe.ColExtent)
		// 4 U MVMs per segment of (rowExt × K)
		for s, seg := range pe.Chunk.Segments {
			want += 4 * cs2.AbsoluteBytes(pe.rowExt[s], seg.K)
			wantFMACs += 4 * cs2.FMACs(pe.rowExt[s], seg.K)
		}
	}
	if got.Bytes() != want {
		t.Errorf("metered %d B, formula %d B", got.Bytes(), want)
	}
	if got.FMACs != wantFMACs {
		t.Errorf("metered %d FMACs, formula %d", got.FMACs, wantFMACs)
	}
}

func TestRepeatedMulVecAccumulatesMeter(t *testing.T) {
	mach, _ := buildMachine(t, 64, 64, 16, 8, 1e-3)
	rng := rand.New(rand.NewSource(4))
	x := dense.Random(rng, 64, 1).Data
	y := make([]complex64, 64)
	mach.MulVec(x, y)
	first := mach.TotalMeter().Bytes()
	mach.MulVec(x, y)
	if mach.TotalMeter().Bytes() != 2*first {
		t.Error("meter should accumulate across invocations")
	}
}

func TestModelCyclesPositiveAndScalesWithWork(t *testing.T) {
	small, _ := buildMachine(t, 64, 64, 16, 4, 1e-3)
	large, _ := buildMachine(t, 64, 64, 16, 16, 1e-3)
	cs, cl := small.ModelCycles(), large.ModelCycles()
	if cs <= 0 || cl <= 0 {
		t.Fatal("nonpositive cycles")
	}
	// larger chunks ⇒ more work per PE ⇒ more worst-chunk cycles
	if cl <= cs {
		t.Errorf("cycles did not grow with stack width: %d vs %d", cs, cl)
	}
}

func TestSimulatorPropertyRandomShapes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 24 + rng.Intn(60)
		n := 24 + rng.Intn(60)
		sw := 1 + rng.Intn(12)
		a := smoothMatrix(rng, m, n)
		tm, err := tlr.Compress(a, tlr.Options{NB: 12, Tol: 1e-3})
		if err != nil {
			return false
		}
		mach, err := Build(tm, sw)
		if err != nil {
			return false
		}
		x := dense.Random(rng, n, 1).Data
		ySim := make([]complex64, m)
		mach.MulVec(x, ySim)
		yRef := make([]complex64, m)
		tm.MulVec(x, yRef)
		diff := make([]complex64, m)
		for i := range diff {
			diff[i] = ySim[i] - yRef[i]
		}
		return cfloat.Nrm2(diff) <= 1e-3*(1+cfloat.Nrm2(yRef))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSimulatedTLRMVM(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	a := smoothMatrix(rng, 128, 128)
	tm, _ := tlr.Compress(a, tlr.Options{NB: 16, Tol: 1e-3})
	mach, err := Build(tm, 8)
	if err != nil {
		b.Fatal(err)
	}
	x := dense.Random(rng, 128, 1).Data
	y := make([]complex64, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mach.MulVec(x, y)
	}
}

func TestStrategy2Stats(t *testing.T) {
	mach, _ := buildMachine(t, 96, 80, 16, 8, 1e-3)
	s := mach.Strategy2()
	if s.PEs != 8*mach.NumPEs() {
		t.Errorf("strategy-2 PEs %d, want 8x%d", s.PEs, mach.NumPEs())
	}
	if s.BaseReplication != 2 {
		t.Error("base replication must be 2")
	}
	// the strategy-2 critical path must be shorter than the full chunk
	// program but longer than an eighth of it (imperfect split)
	full := mach.ModelCycles()
	if s.WorstCycles >= full {
		t.Errorf("strategy 2 not faster: %d vs %d", s.WorstCycles, full)
	}
	if s.WorstCycles < full/8 {
		t.Errorf("strategy 2 unrealistically fast: %d vs %d", s.WorstCycles, full)
	}
	if s.WorstPESRAMBytes <= 0 || s.WorstPESRAMBytes >= mach.WorstSRAM() {
		t.Errorf("strategy-2 per-PE SRAM %d out of range", s.WorstPESRAMBytes)
	}
}
