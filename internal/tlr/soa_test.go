package tlr

// In-package tests for the stacked split-plane layout: the conversion is
// a pure permutation copy, so every element must survive AoS→SoA→AoS
// bit for bit (NaNs and signed zeros included), also under degenerate
// rank structure (zero-rank tiles).

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dense"
)

func randDense(rng *rand.Rand, m, n int) *dense.Matrix {
	a := dense.New(m, n)
	for i := range a.Data {
		a.Data[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	return a
}

// checkSoARoundTrip walks both panel families tile by tile and asserts
// bit-identity with the AoS factors — equivalently, that converting the
// layout back reproduces the original bases exactly.
func checkSoARoundTrip(t testing.TB, m *Matrix) {
	t.Helper()
	l := m.getSoA()
	check := func(name string, ps *panels, inner int, factor func(p, q int) *dense.Matrix) {
		for p := 0; p < ps.n(); p++ {
			_, ld := ps.block(p)
			off := ps.off[p]
			for q := 0; q < inner; q++ {
				f := factor(p, q)
				for kk := 0; kk < f.Cols; kk++ {
					for r := 0; r < ld; r++ {
						z := f.Data[kk*f.Stride+r]
						if math.Float32bits(real(z)) != math.Float32bits(ps.re[off+r]) ||
							math.Float32bits(imag(z)) != math.Float32bits(ps.im[off+r]) {
							t.Fatalf("%s panel %d tile %d col %d row %d: SoA round trip not bit-identical", name, p, q, kk, r)
						}
					}
					off += ld
				}
			}
			if off != ps.off[p+1] {
				t.Fatalf("%s panel %d: consumed %d elements, offsets say %d", name, p, off-ps.off[p], ps.off[p+1]-ps.off[p])
			}
			if got, want := ps.seg[p+1]-ps.seg[p], (ps.off[p+1]-ps.off[p])/max(ld, 1); got != want {
				t.Fatalf("%s panel %d: segment holds %d rank columns, planes hold %d", name, p, got, want)
			}
		}
	}
	check("V", &l.v, m.MT, func(j, i int) *dense.Matrix { return m.Tile(i, j).V })
	check("U", &l.u, m.NT, func(i, j int) *dense.Matrix { return m.Tile(i, j).U })
	// offset-table consistency: column- and row-stacked totals agree
	if l.colSeg[m.MT*m.NT] != l.rowSeg[m.MT*m.NT] {
		t.Fatalf("colSeg total %d != rowSeg total %d", l.colSeg[m.MT*m.NT], l.rowSeg[m.MT*m.NT])
	}
	// a permutation copy: two float32 planes per complex64, no padding
	if got := 4 * int64(len(l.v.re)+len(l.v.im)+len(l.u.re)+len(l.u.im)); got != m.CompressedBytes() {
		t.Fatalf("SoA planes hold %d B, AoS factors %d B", got, m.CompressedBytes())
	}
}

func TestSoARoundTripCompressedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	for _, d := range [][3]int{{40, 40, 10}, {37, 29, 8}, {25, 70, 10}, {70, 25, 16}, {5, 5, 8}} {
		m, err := Compress(randDense(rng, d[0], d[1]), Options{NB: d[2], Tol: 1e-4})
		if err != nil {
			t.Fatal(err)
		}
		checkSoARoundTrip(t, m)
	}
}

// TestSoAZeroRankTiles assembles a matrix by literal (the precision /
// tlrio construction path: no Compress, no eager layout) with some tiles
// at rank zero and checks the lazily built layout bit for bit. The
// products over such matrices are rows of
// TestBatchedMatchesSequentialAcrossShapes.
func TestSoAZeroRankTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	const nb, mt, nt = 6, 3, 2
	mrows, ncols := 16, 11 // ragged edge tiles
	tiles := make([]*Tile, mt*nt)
	for i := 0; i < mt; i++ {
		for j := 0; j < nt; j++ {
			rows := min((i+1)*nb, mrows) - i*nb
			cols := min((j+1)*nb, ncols) - j*nb
			k := (i + j) % 3 // ranks 0, 1, 2
			tiles[i*nt+j] = &Tile{U: randDense(rng, rows, k), V: randDense(rng, cols, k)}
		}
	}
	m := &Matrix{M: mrows, N: ncols, NB: nb, MT: mt, NT: nt, Tiles: tiles}
	checkSoARoundTrip(t, m)
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

// TestAoSProductsHoldOnlyARankSegment pins what a matrix that only runs
// the sequential sweep keeps between products: one segment of MaxRank
// elements and, in memory, no tile scratch; no stacked layout and none
// of its TotalRank-sized scratch — those arrive with the first SoA
// product.
func TestAoSProductsHoldOnlyARankSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(210))
	m, err := Compress(randDense(rng, 40, 33), Options{NB: 8, Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	x, y := make([]complex64, m.N), make([]complex64, m.M)
	m.MulVec(x, y)
	m.MulVecConjTrans(y, x)
	if m.soaReady.Load() != 0 {
		t.Fatal("a sequential product built the SoA layout")
	}
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
	m.MulVecSoA(x, y)
	if l := m.getSoA(); len(l.free) != 1 {
		t.Errorf("%d stacked scratch sets after one SoA product, want 1", len(l.free))
	}
}

// FuzzSoARoundTrip fuzzes the bit-identity property over matrix shapes,
// tile sizes, and accuracy targets: whatever the compressor produces,
// the stacked split-plane conversion must be a lossless permutation.
func FuzzSoARoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(17), uint8(5))
	f.Add(int64(2), uint8(40), uint8(40), uint8(10))
	f.Add(int64(3), uint8(1), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, mRaw, nRaw, nbRaw uint8) {
		mr := 1 + int(mRaw)%48
		nc := 1 + int(nRaw)%48
		nb := 1 + int(nbRaw)%12
		rng := rand.New(rand.NewSource(seed))
		m, err := Compress(randDense(rng, mr, nc), Options{NB: nb, Tol: 1e-3, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkSoARoundTrip(t, m)
	})
}

// TestBatchedSerialBelowThreshold pins the fallback the batch engine's
// TestSerialFallbackSmallBatch pinned: a product whose phases are under
// minParallelWork runs on the caller's goroutine whatever the worker
// count — no goroutine, no closure, so no allocation once warm.
func TestBatchedSerialBelowThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tm := compressOrDie(t, decayMatrix(rng, 40, 32), Options{NB: 8, Tol: 1e-4})
	l := tm.getSoA()
	if len(l.v.re) >= minParallelWork || len(l.u.re) >= minParallelWork {
		t.Fatalf("panels hold %d and %d fmacs: too large to exercise the serial fallback", len(l.v.re), len(l.u.re))
	}
	x, y := dense.Random(rng, tm.N, 1).Data, make([]complex64, tm.M)
	if allocs := testing.AllocsPerRun(20, func() { _ = tm.MulVecBatched(x, y, 8) }); allocs != 0 {
		t.Errorf("MulVecBatched at 8 workers under the threshold allocates %v per product: it left the caller's goroutine", allocs)
	}
}
