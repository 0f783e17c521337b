// Package fft implements the Fourier-transform substrate of the MDC
// operator (Eqn. 2 of the paper): y = Fᴴ K F x, where F transforms seismic
// traces from time to frequency. It provides an iterative radix-2 complex
// FFT, a Bluestein chirp-z fallback for arbitrary lengths, and helpers for
// transforming real-valued time signals to the one-sided frequency band
// used by the frequency matrices.
//
// All transforms operate on complex128 internally for accuracy and expose
// complex64 entry points for the single-precision pipeline.
package fft

import (
	"math"
	"math/bits"
	"math/cmplx"
)

// Plan holds everything a transform of one fixed length needs, computed
// once: the bit-reversal table and the twiddles of every radix-2 stage
// laid out contiguously, or the Bluestein chirps for a length that is not
// a power of two. A Plan is safe for concurrent use after creation.
type Plan struct {
	n     int
	log2n int // -1 for a Bluestein length

	// Radix-2 machinery (power-of-two n). Stage s combines blocks of
	// half = 2ˢ elements; its twiddles exp(-2πi k/2half), k < half, are
	// tw[half-1 : 2·half-1].
	rev []int32
	tw  []complex128

	// Bluestein machinery for non-power-of-two n:
	m     int          // padded power-of-two length >= 2n-1
	chirp []complex128 // exp(-iπ k²/n)
	bfft  []complex128 // FFT of the padded conjugate chirp
	mplan *Plan        // radix-2 plan of length m
}

// NewPlan creates a transform plan for length n >= 1.
func NewPlan(n int) *Plan {
	if n < 1 {
		panic("fft: length must be >= 1")
	}
	p := &Plan{n: n, log2n: -1}
	if n&(n-1) == 0 {
		p.log2n = bits.TrailingZeros(uint(n))
		p.rev = make([]int32, n)
		for i := range p.rev {
			p.rev[i] = int32(bits.Reverse64(uint64(i)) >> (64 - uint(p.log2n)))
		}
		base := make([]complex128, n/2)
		for k := range base {
			ang := -2 * math.Pi * float64(k) / float64(n)
			base[k] = cmplx.Exp(complex(0, ang))
		}
		p.tw = make([]complex128, n-1)
		for half := 1; half < n; half <<= 1 {
			for k := 0; k < half; k++ {
				p.tw[half-1+k] = base[k*(n/(2*half))]
			}
		}
	} else {
		// Bluestein: x_k * chirp_k, convolve with conj chirp, multiply chirp.
		p.m = 1
		for p.m < 2*n-1 {
			p.m <<= 1
		}
		p.chirp = make([]complex128, n)
		for k := 0; k < n; k++ {
			// use k² mod 2n to avoid float blowup for large k
			kk := (int64(k) * int64(k)) % int64(2*n)
			ang := -math.Pi * float64(kk) / float64(n)
			p.chirp[k] = cmplx.Exp(complex(0, ang))
		}
		b := make([]complex128, p.m)
		b[0] = cmplx.Conj(p.chirp[0])
		for k := 1; k < n; k++ {
			c := cmplx.Conj(p.chirp[k])
			b[k] = c
			b[p.m-k] = c
		}
		p.mplan = NewPlan(p.m)
		p.mplan.Forward(b)
		p.bfft = b
	}
	return p
}

// Forward computes the in-place forward DFT of x (length n):
// X_k = Σ_j x_j e^{-2πi jk/n}.
func (p *Plan) Forward(x []complex128) {
	if len(x) != p.n {
		panic("fft: Forward length mismatch")
	}
	if p.log2n >= 0 {
		for i, r := range p.rev {
			if j := int(r); j > i {
				x[i], x[j] = x[j], x[i]
			}
		}
		for half := 1; half < p.n; half <<= 1 {
			stage(x, p.tw[half-1:2*half-1])
		}
		return
	}
	a := make([]complex128, p.m)
	for k, c := range p.chirp {
		a[k] = x[k] * c
	}
	// convolve with the conjugate chirp through the radix-2 plan
	p.mplan.Forward(a)
	for k, b := range p.bfft {
		a[k] *= b
	}
	p.mplan.Inverse(a)
	for k, c := range p.chirp {
		x[k] = a[k] * c
	}
}

// Inverse computes the in-place inverse DFT of x with 1/n normalization:
// x_j = (1/n) Σ_k X_k e^{+2πi jk/n}.
func (p *Plan) Inverse(x []complex128) {
	if len(x) != p.n {
		panic("fft: Inverse length mismatch")
	}
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	p.Forward(x)
	inv := 1 / float64(p.n)
	for i := range x {
		x[i] = complex(real(x[i])*inv, -imag(x[i])*inv)
	}
}

// Forward64 transforms a complex64 slice in place via Forward, in
// complex128.
func (p *Plan) Forward64(x []complex64) { widened(x, p.Forward) }

// widened runs transform on a complex128 copy of x and narrows the result
// back into x.
func widened(x []complex64, transform func([]complex128)) {
	wide := make([]complex128, len(x))
	for i, v := range x {
		wide[i] = complex128(v)
	}
	transform(wide)
	for i, v := range wide {
		x[i] = complex64(v)
	}
}

// stage is one radix-2 stage: in every block of 2·len(w) elements,
// element k of the upper half times w[k] is added to and subtracted from
// element k of the lower.
func stage(x, w []complex128) {
	half := len(w)
	for start := 0; start < len(x); start += 2 * half {
		lo := x[start:][:half]
		hi := x[start+half:][:half]
		for k, wk := range w {
			a, b := lo[k], hi[k]*wk
			lo[k] = a + b
			hi[k] = a - b
		}
	}
}

// IRFFT reconstructs a real time series of length nt from its one-sided
// spectrum: the nt/2+1 bins 0..Nyquist of its forward transform.
func IRFFT(spec []complex128, nt int) []float64 {
	if len(spec) != nt/2+1 {
		panic("fft: IRFFT spectrum length mismatch")
	}
	full := make([]complex128, nt)
	copy(full, spec)
	// mirror every bin but DC and, for even nt, Nyquist
	for k := 1; k < (nt+1)/2; k++ {
		full[nt-k] = cmplx.Conj(spec[k])
	}
	p := NewPlan(nt)
	p.Inverse(full)
	out := make([]float64, nt)
	for i, v := range full {
		out[i] = real(v)
	}
	return out
}

// FreqAxis returns the frequency in Hz of each one-sided bin for a series
// of nt samples at sampling interval dt seconds.
func FreqAxis(nt int, dt float64) []float64 {
	nf := nt/2 + 1
	f := make([]float64, nf)
	df := 1 / (float64(nt) * dt)
	for k := range f {
		f[k] = float64(k) * df
	}
	return f
}
