package cfloat

import (
	"math"
	"math/rand"
	"testing"
)

// splitMat splits a column-major m×n complex matrix (lda = m) into planes.
func splitMat(a []complex64) (ar, ai []float32) {
	ar = make([]float32, len(a))
	ai = make([]float32, len(a))
	SplitReIm(a, ar, ai)
	return ar, ai
}

func randVec(rng *rand.Rand, n int) []complex64 {
	v := make([]complex64, n)
	for i := range v {
		v[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	return v
}

func relErr(got, want []complex64) float64 {
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

// TestGemvSoAMatchesGemv checks the SoA forward kernel (cleared output
// planes, endpoints split and merged here as the stacked products do
// once per call) against the complex reference across shapes that hit
// the unrolled quad loop, the scalar tail, and both at once.
func TestGemvSoAMatchesGemv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sz := range []struct{ m, n int }{
		{1, 1}, {3, 4}, {5, 7}, {16, 16}, {10, 23}, {70, 70}, {33, 129},
	} {
		a := randVec(rng, sz.m*sz.n)
		ar, ai := splitMat(a)
		x := randVec(rng, sz.n)
		want := make([]complex64, sz.m)
		Gemv(NoTrans, sz.m, sz.n, 1, a, sz.m, x, 0, want)
		got := make([]complex64, sz.m)
		xr, xi := make([]float32, sz.n), make([]float32, sz.n)
		yr, yi := make([]float32, sz.m), make([]float32, sz.m)
		SplitReIm(x, xr, xi)
		GemvSoAAcc(sz.m, sz.n, ar, ai, sz.m, xr, xi, yr, yi)
		MergeReIm(yr, yi, got)
		// float32 vs float64 accumulation: allow a few ulps per term
		if e := relErr(got, want); e > 1e-5*math.Sqrt(float64(sz.n)) {
			t.Errorf("%dx%d: SoA forward relErr %g", sz.m, sz.n, e)
		}
	}
}

// TestGemvConjSoAMatchesGemv checks the SoA adjoint kernel likewise.
func TestGemvConjSoAMatchesGemv(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, sz := range []struct{ m, n int }{
		{1, 1}, {4, 3}, {7, 5}, {16, 16}, {23, 10}, {70, 70}, {129, 33},
	} {
		a := randVec(rng, sz.m*sz.n)
		ar, ai := splitMat(a)
		x := randVec(rng, sz.m)
		want := make([]complex64, sz.n)
		Gemv(ConjTrans, sz.m, sz.n, 1, a, sz.m, x, 0, want)
		got := make([]complex64, sz.n)
		xr, xi := make([]float32, sz.m), make([]float32, sz.m)
		yr, yi := make([]float32, sz.n), make([]float32, sz.n)
		SplitReIm(x, xr, xi)
		GemvConjSoAAcc(sz.m, sz.n, ar, ai, sz.m, xr, xi, yr, yi)
		MergeReIm(yr, yi, got)
		if e := relErr(got, want); e > 1e-5*math.Sqrt(float64(sz.m)) {
			t.Errorf("%dx%d: SoA adjoint relErr %g", sz.m, sz.n, e)
		}
	}
}

// TestGemvSoAAccAccumulates verifies the Acc forms really accumulate, so
// cache-blocked panel sweeps can chain calls: two half-matrix calls must
// equal one whole-matrix call bit-for-bit (same per-element operation
// order within each column block).
func TestGemvSoAAccAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const m, n = 17, 24
	a := randVec(rng, m*n)
	ar, ai := splitMat(a)
	x := randVec(rng, n)
	xr, xi := make([]float32, n), make([]float32, n)
	SplitReIm(x, xr, xi)

	whole := make([]complex64, m)
	wyr, wyi := make([]float32, m), make([]float32, m)
	GemvSoAAcc(m, n, ar, ai, m, xr, xi, wyr, wyi)
	MergeReIm(wyr, wyi, whole)

	halves := make([]complex64, m)
	hyr, hyi := make([]float32, m), make([]float32, m)
	const split = 12 // multiple of 4: block boundaries preserve quad grouping
	GemvSoAAcc(m, split, ar, ai, m, xr, xi, hyr, hyi)
	GemvSoAAcc(m, n-split, ar[split*m:], ai[split*m:], m, xr[split:], xi[split:], hyr, hyi)
	MergeReIm(hyr, hyi, halves)

	for i := range whole {
		if whole[i] != halves[i] {
			t.Fatalf("blocked accumulation diverges at %d: %v != %v", i, halves[i], whole[i])
		}
	}
}

// TestGemvConjSoAAccAccumulates is the adjoint analogue: splitting the
// output columns into panels must reproduce the single-call result.
func TestGemvConjSoAAccAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const m, n = 19, 21
	a := randVec(rng, m*n)
	ar, ai := splitMat(a)
	x := randVec(rng, m)
	xr, xi := make([]float32, m), make([]float32, m)
	SplitReIm(x, xr, xi)

	whole := make([]complex64, n)
	wyr, wyi := make([]float32, n), make([]float32, n)
	GemvConjSoAAcc(m, n, ar, ai, m, xr, xi, wyr, wyi)
	MergeReIm(wyr, wyi, whole)

	halves := make([]complex64, n)
	hyr, hyi := make([]float32, n), make([]float32, n)
	const split = 8
	GemvConjSoAAcc(m, split, ar, ai, m, xr, xi, hyr, hyi)
	GemvConjSoAAcc(m, n-split, ar[split*m:], ai[split*m:], m, xr, xi, hyr[split:], hyi[split:])
	MergeReIm(hyr, hyi, halves)

	for i := range whole {
		if whole[i] != halves[i] {
			t.Fatalf("blocked adjoint accumulation diverges at %d: %v != %v", i, halves[i], whole[i])
		}
	}
}

// Benchmarks at the stacked-panel shape of the bench profile (tile rows
// of the full-profile TLR matrix): the SoA kernels against the complex
// Gemv they replace.
func benchOperands(m, n int) (a []complex64, ar, ai []float32, x, y []complex64, xr, xi, yr, yi []float32) {
	rng := rand.New(rand.NewSource(5))
	a = randVec(rng, m*n)
	ar, ai = splitMat(a)
	x = randVec(rng, n)
	y = make([]complex64, max(m, n))
	k := max(m, n)
	xr, xi = make([]float32, k), make([]float32, k)
	yr, yi = make([]float32, k), make([]float32, k)
	return
}

func BenchmarkGemvComplex(b *testing.B) {
	const m, n = 10, 96
	a, _, _, x, y, _, _, _, _ := benchOperands(m, n)
	b.SetBytes(int64(m * n * 8))
	for i := 0; i < b.N; i++ {
		Gemv(NoTrans, m, n, 1, a, m, x, 0, y)
	}
}

func BenchmarkGemvSoAAcc(b *testing.B) {
	const m, n = 10, 96
	_, ar, ai, _, _, xr, xi, yr, yi := benchOperands(m, n)
	b.SetBytes(int64(m * n * 8))
	for i := 0; i < b.N; i++ {
		GemvSoAAcc(m, n, ar, ai, m, xr, xi, yr, yi)
	}
}

func BenchmarkGemvConjComplex(b *testing.B) {
	const m, n = 10, 60
	a, _, _, _, y, _, _, _, _ := benchOperands(m, n)
	x := randVec(rand.New(rand.NewSource(6)), m)
	b.SetBytes(int64(m * n * 8))
	for i := 0; i < b.N; i++ {
		Gemv(ConjTrans, m, n, 1, a, m, x, 0, y)
	}
}

func BenchmarkGemvConjSoAAcc(b *testing.B) {
	const m, n = 10, 60
	_, ar, ai, _, _, xr, xi, yr, yi := benchOperands(m, n)
	b.SetBytes(int64(m * n * 8))
	for i := 0; i < b.N; i++ {
		GemvConjSoAAcc(m, n, ar, ai, m, xr, xi, yr, yi)
	}
}
