package tlr

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/cfloat"
	"repro/internal/dense"
)

// decayMatrix builds a test matrix whose tiles have low numerical rank,
// mimicking a Hilbert-sorted seismic frequency slice: smooth oscillatory
// kernel with distance decay.
func decayMatrix(rng *rand.Rand, m, n int) *dense.Matrix {
	a := dense.New(m, n)
	// sum of a few smooth outer products + small noise
	terms := 6
	for t := 0; t < terms; t++ {
		fu := 0.5 + rng.Float64()*2
		fv := 0.5 + rng.Float64()*2
		amp := math.Pow(0.5, float64(t))
		pu := rng.Float64() * math.Pi
		pv := rng.Float64() * math.Pi
		for j := 0; j < n; j++ {
			vj := complex(amp*math.Cos(fv*float64(j)/float64(n)*math.Pi+pv),
				amp*math.Sin(fv*float64(j)/float64(n)*math.Pi+pv))
			for i := 0; i < m; i++ {
				ui := complex(math.Cos(fu*float64(i)/float64(m)*math.Pi+pu),
					math.Sin(fu*float64(i)/float64(m)*math.Pi+pu))
				a.Set(i, j, a.At(i, j)+complex64(ui*vj))
			}
		}
	}
	return a
}

func compressOrDie(t *testing.T, a *dense.Matrix, opts Options) *Matrix {
	t.Helper()
	tm, err := Compress(a, opts)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	return tm
}

// TestCompressAccuracyAllMethods holds every compressor to its accuracy
// target, and every build to its inputs: the same matrix and options give
// the same ranks and factor bits whatever GOMAXPROCS is.
func TestCompressAccuracyAllMethods(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	a := decayMatrix(rand.New(rand.NewSource(1)), 96, 80)
	for _, method := range []Method{MethodSVD, MethodRRQR} {
		tol := 1e-3
		var first *Matrix
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			tm := compressOrDie(t, a, Options{NB: 16, Tol: tol, Method: method})
			if first == nil {
				first = tm
				err := dense.RelError(tm.Reconstruct(), a)
				// per-tile tolerance gives an aggregate bound of roughly tol
				if !(err <= 5*tol) {
					t.Errorf("%v: reconstruction error %g at tol %g", method, err, tol)
				}
				continue
			}
			for idx, tile := range tm.Tiles {
				want := first.Tiles[idx]
				if !slices.Equal(tile.U.Data, want.U.Data) || !slices.Equal(tile.V.Data, want.V.Data) {
					t.Fatalf("%v: tile %d built at GOMAXPROCS %d (rank %d) differs from the GOMAXPROCS 1 build (rank %d)",
						method, idx, procs, tile.Rank(), want.Rank())
				}
			}
		}
	}
}

func TestMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][2]int{{64, 64}, {100, 70}, {70, 100}, {35, 35}} {
		a := decayMatrix(rng, dims[0], dims[1])
		tm := compressOrDie(t, a, Options{NB: 16, Tol: 1e-5})
		x := dense.Random(rng, dims[1], 1).Data
		yt := make([]complex64, dims[0])
		tm.MulVec(x, yt)
		yd := make([]complex64, dims[0])
		a.MulVec(x, yd)
		nrm := cfloat.Nrm2(yd)
		diff := make([]complex64, dims[0])
		for i := range diff {
			diff[i] = yt[i] - yd[i]
		}
		if !(cfloat.Nrm2(diff) <= 1e-3*nrm) {
			t.Errorf("%v: TLR-MVM error %g rel", dims, cfloat.Nrm2(diff)/nrm)
		}
	}
}

func TestMulVecConjTransMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := decayMatrix(rng, 80, 60)
	tm := compressOrDie(t, a, Options{NB: 16, Tol: 1e-5})
	x := dense.Random(rng, 80, 1).Data
	yt := make([]complex64, 60)
	tm.MulVecConjTrans(x, yt)
	yd := make([]complex64, 60)
	a.MulVecConjTrans(x, yd)
	diff := make([]complex64, 60)
	for i := range diff {
		diff[i] = yt[i] - yd[i]
	}
	if rel := cfloat.Nrm2(diff) / cfloat.Nrm2(yd); !(rel <= 1e-3) {
		t.Errorf("adjoint TLR-MVM error %g rel", rel)
	}
}

func TestAdjointConsistencyProperty(t *testing.T) {
	// ⟨A x, y⟩ == ⟨x, Aᴴ y⟩ must hold for the *compressed* operator
	// itself (not only its dense source) — the invariant LSQR requires.
	rng := rand.New(rand.NewSource(5))
	a := decayMatrix(rng, 48, 40)
	tm := compressOrDie(t, a, Options{NB: 12, Tol: 1e-3})
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := dense.Random(r, 40, 1).Data
		y := dense.Random(r, 48, 1).Data
		ax := make([]complex64, 48)
		tm.MulVec(x, ax)
		aty := make([]complex64, 40)
		tm.MulVecConjTrans(y, aty)
		lhs := cfloat.Dotc(y, ax)
		rhs := cfloat.Dotc(aty, x)
		d := lhs - rhs
		return math.Hypot(float64(real(d)), float64(imag(d))) <
			1e-2*(1+math.Hypot(float64(real(lhs)), float64(imag(lhs))))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestCompressionRatioImprovesWithLooserTol(t *testing.T) {
	// Fig. 12's brown curves: looser acc ⇒ more compression.
	rng := rand.New(rand.NewSource(6))
	a := decayMatrix(rng, 128, 128)
	prevRatio := 0.0
	for _, tol := range []float64{1e-5, 1e-3, 1e-1} {
		tm := compressOrDie(t, a, Options{NB: 16, Tol: tol})
		ratio := tm.CompressionRatio()
		if ratio < prevRatio {
			t.Errorf("tol=%g: ratio %g shrank from %g", tol, ratio, prevRatio)
		}
		prevRatio = ratio
	}
	tight := compressOrDie(t, a, Options{NB: 16, Tol: 1e-6})
	loose := compressOrDie(t, a, Options{NB: 16, Tol: 1e-2})
	if loose.CompressedBytes() > tight.CompressedBytes() {
		t.Errorf("loose tol uses more memory (%d) than tight (%d)",
			loose.CompressedBytes(), tight.CompressedBytes())
	}
}

func TestEdgeTilesNonUniform(t *testing.T) {
	// M, N not multiples of NB exercise ragged edge tiles.
	rng := rand.New(rand.NewSource(7))
	a := decayMatrix(rng, 53, 47)
	tm := compressOrDie(t, a, Options{NB: 16, Tol: 1e-5})
	if tm.MT != 4 || tm.NT != 3 {
		t.Fatalf("tile grid %dx%d, want 4x3", tm.MT, tm.NT)
	}
	if err := dense.RelError(tm.Reconstruct(), a); !(err <= 1e-3) {
		t.Errorf("ragged reconstruction error %g", err)
	}
	x := dense.Random(rng, 47, 1).Data
	yt := make([]complex64, 53)
	tm.MulVec(x, yt)
	yd := make([]complex64, 53)
	a.MulVec(x, yd)
	diff := make([]complex64, 53)
	for i := range diff {
		diff[i] = yt[i] - yd[i]
	}
	if rel := cfloat.Nrm2(diff) / cfloat.Nrm2(yd); !(rel <= 1e-3) {
		t.Errorf("ragged MVM error %g", rel)
	}
}

func TestStackedSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := decayMatrix(rng, 64, 64)
	tm := compressOrDie(t, a, Options{NB: 16, Tol: 1e-4})
	colSizes := tm.ColumnStackedSizes()
	rowSizes := tm.RowStackedSizes()
	var colTotal, rowTotal int
	for _, s := range colSizes {
		colTotal += s
	}
	for _, s := range rowSizes {
		rowTotal += s
	}
	if colTotal != tm.TotalRank() || rowTotal != tm.TotalRank() {
		t.Errorf("stacked sizes inconsistent: col %d row %d total %d",
			colTotal, rowTotal, tm.TotalRank())
	}
}

func TestRanksMap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := decayMatrix(rng, 48, 48)
	tm := compressOrDie(t, a, Options{NB: 16, Tol: 1e-4})
	ranks := tm.Ranks()
	if len(ranks) != tm.MT*tm.NT {
		t.Fatal("rank map size wrong")
	}
	maxR := 0
	for _, r := range ranks {
		if r < 1 {
			t.Fatal("tile rank below 1")
		}
		if r > maxR {
			maxR = r
		}
	}
	if maxR != tm.MaxRank() {
		t.Errorf("MaxRank %d != map max %d", tm.MaxRank(), maxR)
	}
	// every block of an exactly rank-3 matrix has rank 3: the compressor
	// keeps three columns per base — fewer loses accuracy, more loses the
	// footprint — and the compressed size follows in closed form
	lr := compressOrDie(t, dense.Mul(dense.Random(rng, 48, 3), dense.Random(rng, 3, 48)), Options{NB: 16, Tol: 1e-4})
	for idx, r := range lr.Ranks() {
		if r != 3 {
			t.Errorf("rank-3 matrix: tile %d kept rank %d", idx, r)
		}
	}
	if want := int64(9 * 3 * (16 + 16) * 8); lr.CompressedBytes() != want {
		t.Errorf("rank-3 matrix: %d B compressed, want 9 tiles × 3 × (16+16) × 8 B = %d", lr.CompressedBytes(), want)
	}
}

func TestCompressValidation(t *testing.T) {
	a := dense.New(8, 8)
	if _, err := Compress(a, Options{NB: 0, Tol: 1e-4}); err == nil {
		t.Error("NB=0 should error")
	}
	if _, err := Compress(a, Options{NB: 4, Tol: -1}); err == nil {
		t.Error("negative tol should error")
	}
	if _, err := Compress(a, Options{NB: 4, Tol: math.NaN()}); err == nil {
		t.Error("NaN tol should error")
	}
	if _, err := Compress(a, Options{NB: 4, Tol: math.Inf(1)}); err == nil {
		t.Error("+Inf tol should error")
	}
	if _, err := Compress(a, Options{NB: 4, Tol: 1e-4, Method: Method(42)}); err == nil {
		t.Error("unknown method should error")
	}
	// a non-finite entry is an error naming its tile, not NaN factors
	for _, method := range []Method{MethodSVD, MethodRRQR} {
		for _, bad := range []complex64{complex(float32(math.NaN()), 0), complex(float32(math.Inf(1)), 0)} {
			b := decayMatrix(rand.New(rand.NewSource(3)), 48, 48)
			b.Set(20, 37, bad)
			_, err := Compress(b, Options{NB: 16, Tol: 1e-4, Method: method})
			if err == nil || !strings.Contains(err.Error(), "tile (1, 2)") {
				t.Errorf("%v with entry %v: err = %v, want one naming tile (1, 2)", method, bad, err)
			}
		}
	}
}

// TestCompressPacksBasesInOneSlab holds Compress to Fig. 4's layout:
// every tile's V then U, in storage order, each an exact-length view of
// one allocation — and the products to the bits of the same tiles each
// cloned into an allocation of its own.
func TestCompressPacksBasesInOneSlab(t *testing.T) {
	a := decayMatrix(rand.New(rand.NewSource(4)), 70, 52)
	for _, method := range []Method{MethodSVD, MethodRRQR} {
		tm := compressOrDie(t, a, Options{NB: 16, Tol: 1e-4, Method: method})
		var next unsafe.Pointer
		for idx, tile := range tm.Tiles {
			for _, b := range []*dense.Matrix{tile.V, tile.U} {
				if len(b.Data) != b.Rows*b.Cols || cap(b.Data) != len(b.Data) {
					t.Fatalf("%v tile %d: len %d cap %d, want both %d", method, idx, len(b.Data), cap(b.Data), b.Rows*b.Cols)
				}
				p := unsafe.Pointer(unsafe.SliceData(b.Data))
				if next != nil && p != next {
					t.Fatalf("%v tile %d: bases not contiguous in V, U storage order", method, idx)
				}
				next = unsafe.Add(p, len(b.Data)*int(unsafe.Sizeof(b.Data[0])))
			}
		}
		scattered := &Matrix{M: tm.M, N: tm.N, NB: tm.NB, MT: tm.MT, NT: tm.NT, Tiles: make([]*Tile, len(tm.Tiles))}
		for idx, tile := range tm.Tiles {
			scattered.Tiles[idx] = &Tile{U: tile.U.Clone(), V: tile.V.Clone()}
		}
		rng := rand.New(rand.NewSource(5))
		x, u := make([]complex64, tm.N), make([]complex64, tm.M)
		for _, v := range [][]complex64{x, u} {
			for i := range v {
				v[i] = complex(rng.Float32()-0.5, rng.Float32()-0.5)
			}
		}
		products := func(m *Matrix) [][]complex64 {
			y, z, w, s := make([]complex64, m.M), make([]complex64, m.N), make([]complex64, m.M), make([]complex64, m.N)
			m.MulVec(x, y)
			m.MulVecConjTrans(u, z)
			m.MulVecStep(x, 0.5, 0.25, u, w, s)
			return [][]complex64{y, z, w, s}
		}
		got, want := products(tm), products(scattered)
		for i := range got {
			if !slices.Equal(got[i], want[i]) {
				t.Errorf("%v: packed product %d differs from per-tile allocations", method, i)
			}
		}
	}
}

func TestMethodString(t *testing.T) {
	for m, want := range map[Method]string{
		MethodSVD: "svd", MethodRRQR: "rrqr", Method(9): "unknown",
	} {
		if m.String() != want {
			t.Errorf("Method(%d).String() = %q", m, m.String())
		}
	}
}

func TestZeroMatrixCompresses(t *testing.T) {
	a := dense.New(32, 32)
	tm, err := Compress(a, Options{NB: 16, Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if tm.Reconstruct().MaxAbs() > 1e-7 {
		t.Error("zero matrix reconstruction nonzero")
	}
	x := make([]complex64, 32)
	x[0] = 1
	y := make([]complex64, 32)
	tm.MulVec(x, y)
	if !(cfloat.Nrm2(y) <= 1e-7) {
		t.Error("zero matrix MVM nonzero")
	}
}

func TestSingleTileMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := decayMatrix(rng, 10, 10)
	tm := compressOrDie(t, a, Options{NB: 16, Tol: 1e-6}) // NB > dims
	if tm.MT != 1 || tm.NT != 1 {
		t.Fatal("should be a single tile")
	}
	if err := dense.RelError(tm.Reconstruct(), a); !(err <= 1e-3) {
		t.Errorf("single-tile error %g", err)
	}
}

func TestLowRankBeatsDenseFootprint(t *testing.T) {
	// Smooth matrix tiles at loose tolerance must actually compress.
	rng := rand.New(rand.NewSource(12))
	a := decayMatrix(rng, 128, 128)
	tm := compressOrDie(t, a, Options{NB: 32, Tol: 1e-3})
	if tm.CompressionRatio() < 1.5 {
		t.Errorf("compression ratio only %.2f on a smooth matrix", tm.CompressionRatio())
	}
}

func TestStringer(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := decayMatrix(rng, 32, 32)
	tm := compressOrDie(t, a, Options{NB: 16, Tol: 1e-3})
	if tm.String() == "" {
		t.Error("empty String()")
	}
}

func BenchmarkTLRMVMSeq256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := decayMatrix(rng, 256, 256)
	tm, _ := Compress(a, Options{NB: 32, Tol: 1e-4})
	x := dense.Random(rng, 256, 1).Data
	y := make([]complex64, 256)
	b.SetBytes(tm.CompressedBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.MulVec(x, y)
	}
}

func BenchmarkDenseMVM256(b *testing.B) {
	// baseline the TLR-MVM is compared against (Fig. 2 vs Figs. 5-7)
	rng := rand.New(rand.NewSource(1))
	a := decayMatrix(rng, 256, 256)
	x := dense.Random(rng, 256, 1).Data
	y := make([]complex64, 256)
	b.SetBytes(a.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(x, y)
	}
}

func BenchmarkCompressNB16(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := decayMatrix(rng, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Compress(a, Options{NB: 16, Tol: 1e-4})
	}
}

// TestMulVecBatchedMatchesReference holds the frozen forward
// MulVecBatched to MulVec bit for bit at several worker counts: the
// count is ignored.
func TestMulVecBatchedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, dims := range [][2]int{{64, 64}, {53, 47}, {100, 70}} {
		a := decayMatrix(rng, dims[0], dims[1])
		tm := compressOrDie(t, a, Options{NB: 16, Tol: 1e-4})
		x := dense.Random(rng, dims[1], 1).Data
		yRef := make([]complex64, dims[0])
		tm.MulVec(x, yRef)
		for _, workers := range []int{0, 1, 4} {
			yBat := make([]complex64, dims[0])
			if err := tm.MulVecBatched(x, yBat, workers); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(yBat, yRef) {
				t.Errorf("%v: MulVecBatched at %d workers is not MulVec bit for bit", dims, workers)
			}
		}
	}
}

// TestBatchedSerialBelowThreshold pins that MulVecBatched never leaves
// the caller's goroutine: at eight workers it is the sequential sweep,
// with no goroutine and no closure, so no allocation once warm.
func TestBatchedSerialBelowThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tm := compressOrDie(t, decayMatrix(rng, 40, 32), Options{NB: 8, Tol: 1e-4})
	x, y := dense.Random(rng, tm.N, 1).Data, make([]complex64, tm.M)
	if allocs := testing.AllocsPerRun(20, func() { _ = tm.MulVecBatched(x, y, 8) }); allocs != 0 {
		t.Errorf("MulVecBatched at 8 workers allocates %v per product: it left the caller's goroutine", allocs)
	}
}

// TestAoSProductsHoldOnlyARankSegment pins what a matrix keeps between
// products: one segment of MaxRank elements and, in memory, no tile
// scratch.
func TestAoSProductsHoldOnlyARankSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(210))
	m := compressOrDie(t, dense.Random(rng, 40, 33), Options{NB: 8, Tol: 1e-4})
	x, y := make([]complex64, m.N), make([]complex64, m.M)
	m.MulVec(x, y)
	m.MulVecConjTrans(y, x)
	if len(m.sweepFree) != 1 {
		t.Fatalf("%d sweep sets in the free list after two sequential products, want the one they shared", len(m.sweepFree))
	}
	s := <-m.sweepFree
	if len(s.seg) != m.MaxRank() || cap(s.seg) != m.MaxRank() {
		t.Errorf("segment len %d cap %d, want MaxRank %d", len(s.seg), cap(s.seg), m.MaxRank())
	}
	if s.slots != nil || s.arena != nil {
		t.Error("an in-memory matrix checked out tile slots")
	}
}

func relErrC(got, want []complex64) float64 {
	var num, den float64
	for i := range want {
		dr := float64(real(got[i]) - real(want[i]))
		di := float64(imag(got[i]) - imag(want[i]))
		num += dr*dr + di*di
		wr, wi := float64(real(want[i])), float64(imag(want[i]))
		den += wr*wr + wi*wi
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}
