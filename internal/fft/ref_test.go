package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"
)

// refForward is the transform this package computed before its stages
// were tabled — one radix-2 stage at a time over a strided twiddle table
// behind an in-place bit-reversal, Bluestein for other lengths — kept as
// the bit-level reference: the plan may change its schedule, not its
// arithmetic.
func refForward(x []complex128) {
	n := len(x)
	if n&(n-1) != 0 {
		refBluestein(x)
		return
	}
	if n == 1 {
		return
	}
	tw := make([]complex128, n/2)
	for k := range tw {
		tw[k] = cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n)))
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse64(uint64(i)) >> shift); j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half, step := size/2, n/size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * tw[k*step]
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

func refBluestein(x []complex128) {
	n := len(x)
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	chirp := make([]complex128, n)
	for k := range chirp {
		kk := (int64(k) * int64(k)) % int64(2*n)
		chirp[k] = cmplx.Exp(complex(0, -math.Pi*float64(kk)/float64(n)))
	}
	b := make([]complex128, m)
	b[0] = cmplx.Conj(chirp[0])
	for k := 1; k < n; k++ {
		b[k] = cmplx.Conj(chirp[k])
		b[m-k] = b[k]
	}
	refForward(b)
	a := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
	}
	refForward(a)
	for k := range a {
		a[k] *= b[k]
	}
	refInverse(a)
	for k := 0; k < n; k++ {
		x[k] = a[k] * chirp[k]
	}
}

func refInverse(x []complex128) {
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	refForward(x)
	inv := 1 / float64(len(x))
	for i := range x {
		x[i] = complex(real(x[i])*inv, -imag(x[i])*inv)
	}
}

// TestForwardInverseKeepTheirBits: Forward and Inverse run the tabled
// stages and still give every bin the reference's bits at complex128
// width, radix-2 and Bluestein.
func TestForwardInverseKeepTheirBits(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 3, 12, 100, 230} {
		p := NewPlan(n)
		for _, inverse := range []bool{false, true} {
			got := randSignal(rng, n)
			want := append([]complex128(nil), got...)
			if inverse {
				p.Inverse(got)
				refInverse(want)
			} else {
				p.Forward(got)
				refForward(want)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("n=%d inverse=%v: bin %d is %v, reference %v", n, inverse, k, got[k], want[k])
				}
			}
		}
	}
}

// bandsFor returns the band shapes a band-limited pipeline keeps at
// length n: a contiguous low band under n/4, a scattered one, single bins
// low and high, a band that straddles n/4, every bin, and none.
func bandsFor(n int) map[string][]int {
	seq := func(lo, hi int) []int {
		var s []int
		for k := lo; k < hi; k++ {
			s = append(s, k)
		}
		return s
	}
	bands := map[string][]int{
		"dc":    {0},
		"top":   {n - 1},
		"every": seq(0, n),
		"none":  {},
	}
	if n >= 16 {
		bands["low"] = seq(n/64+1, n/4-n/16)
		bands["scattered"] = []int{9, 3, 5}
		bands["straddle"] = seq(n/4-2, n/4+3)
		bands["upper-half"] = []int{1, n/2 + 1}
	}
	return bands
}

// TestBandMatchesForwardInverse: what the time-domain operator's stages
// do to a band — Forward64 of a trace read at the kept bins, Inverse64 of
// a spectrum that is zero off the band — is == Forward and Inverse of the
// widened data, and those have the reference's bits at full complex128
// width, for every power of two 2…1024 and lengths 1, 12 and 100.
func TestBandMatchesForwardInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	lengths := []int{1, 12, 100}
	for n := 2; n <= 1024; n <<= 1 {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		p := NewPlan(n)
		for name, bins := range bandsFor(n) {
			t.Run(fmt.Sprintf("n=%d/%s", n, name), func(t *testing.T) {
				x := make([]complex64, n)
				full := make([]complex128, n)
				for i := range x {
					x[i] = complex64(complex(rng.NormFloat64(), rng.NormFloat64()))
					full[i] = complex128(x[i])
				}
				ref := append([]complex128(nil), full...)
				p.Forward64(x)
				p.Forward(full)
				refForward(ref)
				for _, bin := range bins {
					if x[bin] != complex64(full[bin]) {
						t.Fatalf("analysis bin %d is %v, Forward gives %v", bin, x[bin], complex64(full[bin]))
					}
					if full[bin] != ref[bin] {
						t.Fatalf("Forward bin %d is %v, reference %v", bin, full[bin], ref[bin])
					}
				}

				clear(x)
				clear(full)
				for _, bin := range bins {
					x[bin] = complex64(complex(rng.NormFloat64(), rng.NormFloat64()))
					full[bin] = complex128(x[bin])
				}
				copy(ref, full)
				p.Inverse64(x)
				p.Inverse(full)
				refInverse(ref)
				for i, v := range full {
					if x[i] != complex64(v) {
						t.Fatalf("synthesis sample %d is %v, Inverse gives %v", i, x[i], complex64(v))
					}
					if v != ref[i] {
						t.Fatalf("Inverse sample %d is %v, reference %v", i, v, ref[i])
					}
				}
			})
		}
	}
}

// TestForward64InPlace: the complex64 entry points transform in place,
// == the widened Forward and Inverse narrowed.
func TestForward64InPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 2, 8, 256, 50} {
		p := NewPlan(n)
		x := make([]complex64, n)
		wide := make([]complex128, n)
		for i := range x {
			x[i] = complex64(complex(rng.NormFloat64(), rng.NormFloat64()))
			wide[i] = complex128(x[i])
		}
		p.Forward64(x)
		p.Forward(wide)
		for i := range x {
			if x[i] != complex64(wide[i]) {
				t.Fatalf("n=%d: Forward64 bin %d is %v, Forward gives %v", n, i, x[i], complex64(wide[i]))
			}
			wide[i] = complex128(x[i])
		}
		p.Inverse64(x)
		p.Inverse(wide)
		for i := range x {
			if x[i] != complex64(wide[i]) {
				t.Fatalf("n=%d: Inverse64 sample %d is %v, Inverse gives %v", n, i, x[i], complex64(wide[i]))
			}
		}
	}
}
