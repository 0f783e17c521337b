package testkit

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dense"
	"repro/internal/mdc"
	"repro/internal/precision"
	"repro/internal/tlr"
)

func TestGeneratorsDeterministic(t *testing.T) {
	a := Mat(NewRNG(42), 13, 9)
	b := Mat(NewRNG(42), 13, 9)
	if dense.RelError(a, b) != 0 {
		t.Fatal("Mat not deterministic for equal seeds")
	}
	va := Vec(NewRNG(7), 33)
	vb := Vec(NewRNG(7), 33)
	for i := range va {
		if va[i] != vb[i] {
			t.Fatal("Vec not deterministic for equal seeds")
		}
	}
	vc := Vec(NewRNG(8), 33)
	same := true
	for i := range va {
		if va[i] != vc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical vectors")
	}
}

func TestEye(t *testing.T) {
	e := Eye(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := complex64(0)
			if i == j {
				want = 1
			}
			if e.At(i, j) != want {
				t.Fatal("Eye wrong")
			}
		}
	}
}

func TestHilbertMatIsDataSparse(t *testing.T) {
	a := HilbertMat(48, 48)
	tm, err := tlr.Compress(a, tlr.Options{NB: 12, Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if tm.CompressionRatio() <= 1.5 {
		t.Errorf("Hilbert matrix should compress well, ratio %.2f", tm.CompressionRatio())
	}
	if e := dense.RelError(tm.Reconstruct(), a); e > 1e-3 {
		t.Errorf("Hilbert reconstruction error %g", e)
	}
}

func TestDecayMatCompressesBetterThanGaussian(t *testing.T) {
	rng := NewRNG(3)
	g, err := tlr.Compress(Mat(rng, 40, 40), tlr.Options{NB: 10, Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	d, err := tlr.Compress(DecayMat(rng, 40, 40, 0.5), tlr.Options{NB: 10, Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if d.TotalRank() >= g.TotalRank() {
		t.Errorf("decay matrix rank %d not below Gaussian %d", d.TotalRank(), g.TotalRank())
	}
}

func TestRelErrMetric(t *testing.T) {
	if RelErr([]complex64{1, 2}, []complex64{1, 2}) != 0 {
		t.Error("equal vectors must have zero error")
	}
	if e := RelErr([]complex64{0, 0}, []complex64{3, 4}); math.Abs(e-1) > 1e-7 {
		t.Errorf("zero vs (3,4) should be relErr 1, got %g", e)
	}
	// zero want falls back to absolute norm
	if e := RelErr([]complex64{3, 4}, []complex64{0, 0}); math.Abs(e-5) > 1e-6 {
		t.Errorf("absolute fallback wrong: %g", e)
	}
}

// TestMetricsFailOnNaN holds the metrics tolerance checks read to +Inf
// on NaN input, so an `e > tol` check fails rather than passes.
func TestMetricsFailOnNaN(t *testing.T) {
	nan := complex(float32(math.NaN()), 0)
	fill := func(y []complex64) {
		for i := range y {
			y[i] = nan
		}
	}
	nanOp := &implOperator{m: 3, n: 2, impl: Impl{
		Apply:   func(_, y []complex64) error { fill(y); return nil },
		Adjoint: func(_, y []complex64) { fill(y) },
	}}
	for _, tc := range []struct {
		name string
		got  float64
	}{
		{"RelErr, NaN got", RelErr([]complex64{1, nan}, []complex64{1, 2})},
		{"RelErr, NaN want", RelErr([]complex64{1, 2}, []complex64{1, nan})},
		{"RelErr, NaN got, zero want", RelErr([]complex64{nan, 0}, []complex64{0, 0})},
		{"AdjointGap, NaN operator", AdjointGap(nanOp, NewRNG(1), 2)},
	} {
		if !math.IsInf(tc.got, 1) {
			t.Errorf("%s = %g, want +Inf", tc.name, tc.got)
		}
	}
}

func TestULPDist(t *testing.T) {
	if ULPDist(1+1i, 1+1i) != 0 {
		t.Error("identical values must be 0 ULPs apart")
	}
	next := math.Float32frombits(math.Float32bits(1) + 1)
	if d := ULPDist(complex(next, 0), 1); d != 1 {
		t.Errorf("adjacent floats are %d ULPs apart, want 1", d)
	}
	// sign-crossing distance: -0 and +0 are 0 apart
	if d := ULPDist(complex(float32(math.Copysign(0, -1)), 0), 0); d != 0 {
		t.Errorf("-0 vs +0 = %d ULPs", d)
	}
	if ULPDist(complex(float32(math.NaN()), 0), 1) != math.MaxUint32 {
		t.Error("NaN distance must saturate")
	}
	got := []complex64{1, complex(next, 0)}
	want := []complex64{1, 1}
	if MaxULPDist(got, want) != 1 {
		t.Error("MaxULPDist wrong")
	}
}

func TestToleranceMonotone(t *testing.T) {
	// looser compression and lower precision must widen the budget
	if MVMTolerance(64, 1e-2, precision.FP32) <= MVMTolerance(64, 1e-4, precision.FP32) {
		t.Error("tolerance not monotone in acc")
	}
	if MVMTolerance(64, 1e-4, precision.BF16) <= MVMTolerance(64, 1e-4, precision.FP16) {
		t.Error("bf16 budget must exceed fp16")
	}
	if MVMTolerance(64, 1e-4, precision.FP16) <= MVMTolerance(64, 1e-4, precision.FP32) {
		t.Error("fp16 budget must exceed fp32")
	}
}

func TestAdjointGapDetectsBrokenAdjoint(t *testing.T) {
	rng := NewRNG(5)
	a := Mat(rng, 12, 9)
	good := &implOperator{m: 12, n: 9, impl: Impl{
		Apply:   func(x, y []complex64) error { a.MulVec(x, y); return nil },
		Adjoint: a.MulVecConjTrans,
	}}
	if g := AdjointGap(good, NewRNG(1), 4); g > 1e-4 {
		t.Errorf("correct adjoint has gap %g", g)
	}
	// broken adjoint: unconjugated transpose instead of Hermitian
	at := a.ConjTranspose()
	bad := &implOperator{m: 12, n: 9, impl: Impl{
		Apply: func(x, y []complex64) error { a.MulVec(x, y); return nil },
		Adjoint: func(x, y []complex64) {
			at.MulVec(x, y)
			for i := range y {
				y[i] = complex(real(y[i]), -imag(y[i])) // conj(Aᴴx) = Aᵀ conj(x): wrong
			}
		},
	}}
	if g := AdjointGap(bad, NewRNG(1), 4); g < 1e-2 {
		t.Errorf("broken adjoint not detected, gap %g", g)
	}
}

func oracleCase(t *testing.T, a *dense.Matrix, cfg Config) *Oracle {
	t.Helper()
	o, err := New(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestOracleGaussian(t *testing.T) {
	a := Mat(NewRNG(11), 40, 40)
	o := oracleCase(t, a, Config{TLROpts: tlr.Options{NB: 10, Tol: 1e-4}})
	if err := o.CompressionHolds(); err != nil {
		t.Fatal(err)
	}
	if err := o.Check(NewRNG(12), 3); err != nil {
		t.Fatal(err)
	}
	if len(o.Impls) < 5 {
		t.Fatalf("oracle must exercise >= 5 implementations, has %d", len(o.Impls))
	}
}

func TestOracleDecayWithPrecision(t *testing.T) {
	a := DecayMat(NewRNG(13), 50, 40, 0.6)
	o := oracleCase(t, a, Config{
		TLROpts:    tlr.Options{NB: 10, Tol: 1e-3},
		Format:     precision.FP16,
		StackWidth: 6,
	})
	if err := o.Check(NewRNG(14), 3); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, im := range o.Impls {
		if strings.HasPrefix(im.Name, "precision-") {
			found = true
		}
	}
	if !found {
		t.Fatal("FP16 config must add a precision implementation")
	}
}

func TestOracleSeismicSlice(t *testing.T) {
	a, err := SeismicSlice(4)
	if err != nil {
		t.Fatal(err)
	}
	o := oracleCase(t, a, Config{TLROpts: tlr.Options{NB: 8, Tol: 1e-4}})
	if err := o.Check(NewRNG(15), 2); err != nil {
		t.Fatal(err)
	}
}

// TestOracleDetectsOverTruncation breaks the compression by truncating
// one tile's factors to rank 1 while the oracle claims a 1e-6 accuracy:
// the tolerance derived from the claimed acc cannot absorb the real
// error, so Check must fail against the dense reference. This is the
// guarantee that later performance changes cannot silently trade
// accuracy away.
func TestOracleDetectsOverTruncation(t *testing.T) {
	a := Mat(NewRNG(21), 40, 40)
	o := oracleCase(t, a, Config{TLROpts: tlr.Options{NB: 10, Tol: 1e-6}})
	tile := o.T.Tile(1, 1)
	tile.U = dense.FromSlice(tile.U.Rows, 1, tile.U.Col(0))
	tile.V = dense.FromSlice(tile.V.Rows, 1, tile.V.Col(0))
	err := o.Check(NewRNG(22), 2)
	if err == nil || !strings.Contains(err.Error(), "deviates from dense reference") {
		t.Fatalf("oracle accepted a rank-1 truncation of a full-rank tile: %v", err)
	}
}

// TestOracleDetectsCorruptedTile zeroes one tile's U base after
// compression — the kind of drift a buggy sharding or caching layer could
// introduce — and requires the oracle to notice.
func TestOracleDetectsCorruptedTile(t *testing.T) {
	a := Mat(NewRNG(23), 40, 40)
	o := oracleCase(t, a, Config{TLROpts: tlr.Options{NB: 10, Tol: 1e-4}})
	u := o.T.Tile(1, 1).U
	for i := range u.Data {
		u.Data[i] = 0
	}
	if err := o.Check(NewRNG(24), 2); err == nil {
		t.Fatal("oracle accepted a corrupted tile")
	}
}

func TestSeismicBand(t *testing.T) {
	mats, err := SeismicBand(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(mats) != 3 {
		t.Fatalf("want 3 matrices, got %d", len(mats))
	}
	for _, m := range mats {
		if m.Rows == 0 || m.Cols == 0 || m.MaxAbs() == 0 {
			t.Fatal("degenerate seismic slice")
		}
	}
}

// TestMulVecEntryPointCensus keeps the TLR-MVM surface at the seven
// names of DESIGN.md's "TLR-MVM entry points and who calls them" table:
// the four products (MulVec, MulVecConjTrans, MulVecStep, MulVecNormal)
// and three bench-only forwards to them (MulVecSoA, MulVecConjTransSoA,
// MulVecBatched; TestFrozenForwardsAreTheirProducts). An eighth exported
// (*tlr.Matrix).MulVec* method fails here: every later kernel change has
// to keep each variant in step, so a new one is argued for in that table
// (production caller, oracle Impl, hot-path kernel) — or lands as a
// parameter of an existing row — first.
func TestMulVecEntryPointCensus(t *testing.T) {
	want := map[string]bool{
		"MulVec": true, "MulVecConjTrans": true,
		"MulVecSoA": true, "MulVecConjTransSoA": true,
		"MulVecStep": true, "MulVecNormal": true, "MulVecBatched": true,
	}
	typ := reflect.TypeOf((*tlr.Matrix)(nil))
	for i := 0; i < typ.NumMethod(); i++ {
		name := typ.Method(i).Name
		if !strings.HasPrefix(name, "MulVec") {
			continue
		}
		if !want[name] {
			t.Errorf("(*tlr.Matrix).%s is not one of the seven TLR-MVM entry points; argue for it in DESIGN.md's entry-point table before adding it here", name)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("(*tlr.Matrix).%s is gone; update DESIGN.md's entry-point table and this census together", name)
	}
}

// TestFrozenForwardsAreTheirProducts pins the four names kept only for
// the frozen benchmark to the products they forward to, bit for bit, in
// memory and store-backed: EnsureSoA builds nothing, MulVecSoA and
// MulVecBatched (at any worker count) are MulVec, MulVecConjTransSoA is
// MulVecConjTrans.
func TestFrozenForwardsAreTheirProducts(t *testing.T) {
	rng := NewRNG(46)
	mem, err := tlr.Compress(DecayMat(rng, 53, 41, 0.5), tlr.Options{NB: 8, Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	ooc, err := storeBacked(mem, nil, mem.CompressedBytes()/2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range []*tlr.Matrix{mem, ooc} {
		tm.EnsureSoA()
		x, xa := Vec(rng, tm.N), Vec(rng, tm.M)
		want, wantA := make([]complex64, tm.M), make([]complex64, tm.N)
		tm.MulVec(x, want)
		tm.MulVecConjTrans(xa, wantA)
		got, gotA := Vec(rng, tm.M), Vec(rng, tm.N)
		tm.MulVecSoA(x, got)
		if d := MaxULPDist(got, want); d != 0 {
			t.Errorf("store-backed %v: MulVecSoA %d ULPs from MulVec", tm.OutOfCore(), d)
		}
		tm.MulVecConjTransSoA(xa, gotA)
		if d := MaxULPDist(gotA, wantA); d != 0 {
			t.Errorf("store-backed %v: MulVecConjTransSoA %d ULPs from MulVecConjTrans", tm.OutOfCore(), d)
		}
		for _, workers := range []int{0, 1, 2, 8} {
			got := Vec(rng, tm.M)
			if err := tm.MulVecBatched(x, got, workers); err != nil {
				t.Fatal(err)
			}
			if d := MaxULPDist(got, want); d != 0 {
				t.Errorf("store-backed %v: MulVecBatched at %d workers %d ULPs from MulVec", tm.OutOfCore(), workers, d)
			}
		}
	}
}

// TestKernelSurfaceCensus keeps the per-frequency kernel contract
// single: the built-in kernels export mdc.Kernel (plus the one optional
// fused capability on the TLR kernel, mdc.NormalKernel's ApplyNormal and
// ApplyStep) and FreqOperator its forward, adjoint and step products,
// nothing else. A fallible twin of any of them fails here —
// errors enter the stack at batch.ShardExec and lsqr.FallibleOperator
// (DESIGN.md, "Where a product can fail"), not at a kernel.
func TestKernelSurfaceCensus(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want []string // sorted, as reflect lists methods
	}{
		{reflect.TypeOf((*mdc.DenseKernel)(nil)), []string{"Apply", "ApplyAdjoint", "Bytes", "Cols", "NumFreqs", "Rows"}},
		{reflect.TypeOf((*mdc.TLRKernel)(nil)), []string{"Apply", "ApplyAdjoint", "ApplyNormal", "ApplyStep", "Bytes", "Cols", "NumFreqs", "Rows"}},
		{reflect.TypeOf((*mdc.FreqOperator)(nil)), []string{"Apply", "ApplyAdjoint", "ApplyStep", "Cols", "Rows"}},
	} {
		var got []string
		for i := 0; i < c.typ.NumMethod(); i++ {
			got = append(got, c.typ.Method(i).Name)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v exports %v, want exactly %v", c.typ, got, c.want)
		}
	}
}
