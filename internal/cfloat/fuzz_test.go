package cfloat_test

import (
	"math"
	"testing"

	"repro/internal/cfloat"
	"repro/internal/testkit"
)

// FuzzSplitMergeRoundTrip: SplitReIm must put every element's real and
// imaginary parts into the two planes bit for bit, NaNs, infinities and
// signed zeros included, so complex(re[i], im[i]) is the element again.
func FuzzSplitMergeRoundTrip(f *testing.F) {
	f.Add(float32(0), float32(-0.0), float32(1e38), float32(-1e-45))
	f.Add(float32(math.NaN()), float32(math.Inf(1)), float32(1), float32(2))
	f.Fuzz(func(t *testing.T, a, b, c, d float32) {
		x := []complex64{complex(a, b), complex(c, d)}
		re := make([]float32, len(x))
		im := make([]float32, len(x))
		cfloat.SplitReIm(x, re, im)
		for i := range x {
			if math.Float32bits(re[i]) != math.Float32bits(real(x[i])) ||
				math.Float32bits(im[i]) != math.Float32bits(imag(x[i])) {
				t.Fatalf("element %d: %v → %v, %v", i, x[i], re[i], im[i])
			}
		}
	})
}

// FuzzComplexMVMViaFourReal: the four-real-GEMV decomposition (§6.6) on
// RealGemv, as wsesim runs it, must track the direct complex GEMV within
// float32 summation-order error on arbitrary well-scaled inputs and
// shapes. The error is measured against ‖A‖_F·‖x‖, the bound a
// backward-stable product satisfies, not against ‖y‖: a row whose terms
// cancel (testdata seed m1_cancellation, m = 1) leaves a small y carrying
// the rounding of large summands.
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
		cfloat.Gemv(cfloat.NoTrans, m, n, 1, a, m, x, 0, want)
		got := fourReal(m, n, ar, ai, x)
		cfloat.Axpy(-1, want, got)
		if e := cfloat.Nrm2(got) / (cfloat.Nrm2(a) * cfloat.Nrm2(x)); !(e <= testkit.ExecTolerance(n)) {
			t.Fatalf("m=%d n=%d seed=%d: four-real error %g of ‖A‖‖x‖ > %g",
				m, n, seed, e, testkit.ExecTolerance(n))
		}
	})
}

// FuzzGemvBlocked: the column-blocked float32 Gemv loops must track a
// complex128 product within float32 summation error of ‖A‖‖x‖ on any
// shape — every block remainder, an empty matrix, a padded leading
// dimension — for general alpha, each beta branch and zeros in x, and
// must be bit for bit (NaN ≡ NaN) the pure-Go loops, which on amd64 are
// not what Gemv runs. The flag byte picks the variant; TestGemvBlockedTable
// and TestGemvAsmMatchesGo are the same checks on fixed grids.
func FuzzGemvBlocked(f *testing.F) {
	f.Add(int64(1), uint8(63), uint8(25), uint8(0))
	f.Add(int64(2), uint8(0), uint8(3), uint8(0xff))
	f.Add(int64(3), uint8(23), uint8(0), uint8(0x55))
	f.Add(int64(4), uint8(23), uint8(13), uint8(0x19)) // adjoint 24×13: every pass width
	f.Fuzz(func(t *testing.T, seed int64, mRaw, nRaw, flags uint8) {
		c := gemvCase{
			tr: cfloat.NoTrans, m: int(mRaw%70) + 1, n: int(nRaw % 71),
			alpha: 1, beta: 0, seed: seed,
		}
		if flags&1 != 0 {
			c.tr = cfloat.ConjTrans
		}
		c.lda = c.m + int(flags>>1&3)
		if flags&8 != 0 {
			c.alpha = 0.5 - 2i
		}
		c.beta = []complex64{0, 1, -0.25 + 0.5i, 1}[flags>>4&3]
		c.zeroEvery = int(flags >> 6) // 0 = none
		if e, reduce := c.err(); !(e <= testkit.ExecTolerance(reduce)) {
			t.Fatalf("%+v: error %g of ‖A‖‖x‖ > %g", c, e, testkit.ExecTolerance(reduce))
		}
		if i := c.bitsDiffer(); i >= 0 {
			t.Fatalf("%+v: y[%d] differs from the pure-Go loops' bits", c, i)
		}
	})
}

// FuzzAxpy: Axpy must be bit for bit (NaN ≡ NaN) its pure-Go loop, which
// on amd64 is not what it runs, for any alpha and any x and y values —
// signed zeros, subnormals, Inf and NaN included — at a length of 1 to
// 7, so the assembly's two-element pass and its one-element tail both
// run. TestAxpyAsmMatchesGo is the same check on a fixed grid.
func FuzzAxpy(f *testing.F) {
	f.Add(float32(0.75), float32(-1.25), float32(1), float32(-0.0), float32(3e-39), float32(2), uint8(3))
	f.Add(float32(math.Inf(1)), float32(0), float32(0), float32(math.NaN()), float32(-1), float32(1e38), uint8(6))
	f.Fuzz(func(t *testing.T, ar, ai, xr, xi, yr, yi float32, nRaw uint8) {
		n := int(nRaw%7) + 1
		x := make([]complex64, n)
		y := make([]complex64, n)
		for i := range x {
			// rotate the values through the lanes so each element differs
			x[i] = complex(xr, xi)
			y[i] = complex(yr, yi)
			xr, xi, yr, yi = xi, yr, yi, xr
		}
		alpha := complex(ar, ai)
		want := append([]complex64(nil), y...)
		cfloat.Axpy(alpha, x, y)
		cfloat.AxpyGo(alpha, x, want)
		if i := sameBits(y, want); i >= 0 {
			t.Fatalf("alpha=%v n=%d: y[%d] = %v, the Go loop gives %v", alpha, n, i, y[i], want[i])
		}
	})
}
