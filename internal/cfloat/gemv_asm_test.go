package cfloat_test

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/cfloat"
	"repro/internal/testkit"
)

// offAligned returns n random elements that start 8 bytes past a 16-byte
// boundary, so an aligned-only SSE load of them would fault.
func offAligned(rng *rand.Rand, n int) []complex64 {
	s := testkit.Vec(rng, n+1)
	if uintptr(unsafe.Pointer(&s[0]))%16 == 0 {
		return s[1:]
	}
	return s[:n]
}

// TestGemvAsmMatchesGo holds Gemv — on an amd64 host with AVX the kernels
// of gemv_amd64.s — to the pure-Go loops bit for bit (math.Float32bits,
// NaN ≡ NaN) on every shape up to 70×40 in both directions: leading
// dimensions padded by 0–3, every slice 8 bytes off 16-byte alignment,
// alpha 1 and general, beta 0, −0, 1 and general (y all NaN going in
// when beta is zero), signed zeros in x, and Inf and NaN in A on a share
// of the shapes. The mutation that adds a column's two products to each
// other before adding them to y (gemvN's y + (vr·pr − vi·pi) for
// (y + vr·pr) − vi·pi) fails here, and so does the one that adds the
// adjoint's two products to the accumulator one at a time.
func TestGemvAsmMatchesGo(t *testing.T) {
	rng := testkit.NewRNG(26)
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negz := float32(math.Copysign(0, -1))
	alphas := []complex64{1, complex(0.75, -1.25)}
	betas := []complex64{0, complex(negz, negz), 1, complex(-0.5, 0.25)}
	for _, tr := range []cfloat.Trans{cfloat.NoTrans, cfloat.ConjTrans} {
		for m := 0; m <= 70; m++ {
			for n := 0; n <= 40; n++ {
				lda := max(1, m) + (m+n)%4
				xlen, ylen := n, m
				if tr == cfloat.ConjTrans {
					xlen, ylen = m, n
				}
				a := offAligned(rng, lda*n)
				x := offAligned(rng, xlen)
				y0 := offAligned(rng, ylen)
				zeros := []complex64{complex(negz, negz), complex(negz, 0), complex(0, negz)}
				for i := 1; i < xlen; i += 3 {
					x[i] = zeros[i/3%3]
				}
				if k := m*41 + n; k%7 == 0 && len(a) > 0 {
					a[k%len(a)] = complex(inf, 1)
					a[(k/2)%len(a)] = complex(0, nan)
				}
				y := offAligned(rng, ylen)
				want := make([]complex64, ylen)
				for _, alpha := range alphas {
					for _, beta := range betas {
						copy(y, y0)
						if beta == 0 {
							for i := range y {
								y[i] = complex(nan, nan)
							}
						}
						copy(want, y)
						cfloat.Gemv(tr, m, n, alpha, a, lda, x, beta, y)
						cfloat.GemvGo(tr, m, n, alpha, a, lda, x, beta, want)
						if i := sameBits(y, want); i >= 0 {
							t.Fatalf("%v m=%d n=%d lda=%d alpha=%v beta=%v: y[%d] = %v, the Go loops give %v",
								tr, m, n, lda, alpha, beta, i, y[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestAxpyAsmMatchesGo holds Axpy — on amd64 the SSE2 loop of
// axpy_amd64.s — to its pure-Go loop bit for bit (math.Float32bits,
// NaN ≡ NaN) at every length 0…70, x and y each 8 bytes off 16-byte
// alignment, for alpha 0, −0, general, ±Inf and NaN in either part, with
// signed zeros, subnormals, Inf and NaN in x and signed zeros in y. It
// was checked against the mutation that takes the product in float32
// (mul(alpha, x[i]) in place of gc's widened product): that fails here.
func TestAxpyAsmMatchesGo(t *testing.T) {
	rng := testkit.NewRNG(38)
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negz := float32(math.Copysign(0, -1))
	sub := math.Float32frombits(3) // a subnormal
	alphas := []complex64{
		0, complex(negz, negz), complex(0.75, -1.25), complex(-3e-3, 7.5),
		complex(inf, 0), complex(0, -inf), complex(nan, 1), complex(1, nan),
	}
	special := []complex64{
		complex(negz, 0), complex(0, negz), complex(negz, negz), complex(sub, -sub),
		complex(-sub, 1), complex(inf, 1), complex(1, -inf), complex(nan, 0), complex(0, nan),
	}
	for n := 0; n <= 70; n++ {
		x := offAligned(rng, n)
		y0 := offAligned(rng, n)
		for i := 2; i < n; i += 3 {
			x[i] = special[i/3%len(special)]
			y0[i-1] = complex(negz, 0)
		}
		y := offAligned(rng, n)
		want := make([]complex64, n)
		for _, alpha := range alphas {
			copy(y, y0)
			copy(want, y0)
			cfloat.Axpy(alpha, x, y)
			cfloat.AxpyGo(alpha, x, want)
			if i := sameBits(y, want); i >= 0 {
				t.Fatalf("n=%d alpha=%v x[%d]=%v: y[%d] = %v, the Go loop gives %v", n, alpha, i, x[i], i, y[i], want[i])
			}
		}
	}
}
