package cfloat_test

import (
	"math"
	"testing"

	"repro/internal/cfloat"
	"repro/internal/testkit"
)

// FuzzSplitMergeRoundTrip: splitting a complex vector into re/im planes
// and merging back must restore every element bit-for-bit, including
// NaNs, infinities and signed zeros.
func FuzzSplitMergeRoundTrip(f *testing.F) {
	f.Add(float32(0), float32(-0.0), float32(1e38), float32(-1e-45))
	f.Add(float32(math.NaN()), float32(math.Inf(1)), float32(1), float32(2))
	f.Fuzz(func(t *testing.T, a, b, c, d float32) {
		x := []complex64{complex(a, b), complex(c, d)}
		re := make([]float32, len(x))
		im := make([]float32, len(x))
		cfloat.SplitReIm(x, re, im)
		back := make([]complex64, len(x))
		cfloat.MergeReIm(re, im, back)
		for i := range x {
			if math.Float32bits(real(back[i])) != math.Float32bits(real(x[i])) ||
				math.Float32bits(imag(back[i])) != math.Float32bits(imag(x[i])) {
				t.Fatalf("element %d: %v → %v", i, x[i], back[i])
			}
		}
	})
}

// FuzzComplexMVMViaFourReal: the four-real-GEMV decomposition (§6.6) must
// track the direct complex GEMV within float32 summation-order error on
// arbitrary well-scaled inputs and shapes. The error is measured against
// ‖A‖_F·‖x‖, the bound a backward-stable product satisfies, not against
// ‖y‖: a row whose terms cancel (testdata seed m1_cancellation, m = 1)
// leaves a small y carrying the rounding of large summands.
func FuzzComplexMVMViaFourReal(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(1))
	f.Add(int64(42), uint8(17), uint8(29))
	f.Fuzz(func(t *testing.T, seed int64, mRaw, nRaw uint8) {
		m := int(mRaw%48) + 1
		n := int(nRaw%48) + 1
		rng := testkit.NewRNG(seed)
		a := testkit.Vec(rng, m*n)
		x := testkit.Vec(rng, n)
		ar := make([]float32, m*n)
		ai := make([]float32, m*n)
		cfloat.SplitReIm(a, ar, ai)
		want := make([]complex64, m)
		got := make([]complex64, m)
		cfloat.Gemv(cfloat.NoTrans, m, n, 1, a, m, x, 0, want)
		cfloat.ComplexMVMViaFourReal(m, n, ar, ai, m, x, got)
		cfloat.Axpy(-1, want, got)
		if e := cfloat.Nrm2(got) / (cfloat.Nrm2(a) * cfloat.Nrm2(x)); e > testkit.ExecTolerance(n) {
			t.Fatalf("m=%d n=%d seed=%d: four-real error %g of ‖A‖‖x‖ > %g",
				m, n, seed, e, testkit.ExecTolerance(n))
		}
	})
}
