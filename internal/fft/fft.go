// Package fft implements the Fourier-transform substrate of the MDC
// operator (Eqn. 2 of the paper): y = Fᴴ K F x, where F transforms seismic
// traces from time to frequency. It provides an iterative radix-2 complex
// FFT, a Bluestein chirp-z fallback for arbitrary lengths, the banded
// pencil transform of the time-domain operator (Band: complex64 traces to
// and from a fixed set of bins, skipping the butterflies the band makes
// redundant), and helpers for transforming real-valued time signals to the
// one-sided frequency band used by the frequency matrices.
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

	all *Band // every bin: the complex64 entry points
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
	bins := make([]int, n)
	for k := range bins {
		bins[k] = k
	}
	p.all = p.Band(bins)
	return p
}

// Len returns the transform length.
func (p *Plan) Len() int { return p.n }

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
		p.butterflies(x, 0, nil)
		return
	}
	a := make([]complex128, p.m)
	for k, c := range p.chirp {
		a[k] = x[k] * c
	}
	p.convolve(a)
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

// Forward64 transforms a complex64 slice via the plan, using complex128
// internally.
func (p *Plan) Forward64(x []complex64) {
	p.all.Analyze(x, 1, x, 1, make([]complex128, p.all.WorkLen()))
}

// Inverse64 is the complex64 counterpart of Inverse.
func (p *Plan) Inverse64(x []complex64) {
	p.all.Synthesize(x, x, 1, 1, make([]complex128, p.all.WorkLen()))
}

// Band is a Plan bound to the bins a caller keeps: the pencil transform
// of a band-limited pipeline, which analyses complex64 traces into those
// bins and synthesizes traces from them, in a caller-provided complex128
// pencil. What the band lets the radix-2 butterflies skip is worked out
// here, once. A Band is safe for concurrent use; a pencil is not.
type Band struct {
	p    *Plan
	bins []int

	// Analysis: the last pair of stages is one block of n/4 columns with
	// outputs at k, k+n/4, k+n/2, k+3n/4; only columns [colLo, colHi)
	// reach a kept bin and, when every bin is below n/4 (firstOnly), only
	// the first output of each.
	colLo, colHi int
	firstOnly    bool
	// Synthesis: with every bin below n/2ˢ the bit-reversed spectrum is
	// zero off the multiples of 2ˢ, so the first s = skip stages only
	// replicate.
	skip int
}

// Band binds the plan to bins — distinct, in [0, n), in any order; the
// slice is retained. Bands of one plan share its tables.
func (p *Plan) Band(bins []int) *Band {
	b := &Band{p: p, bins: bins}
	if p.log2n < 0 || len(bins) == 0 {
		return b
	}
	top := 0
	for _, bin := range bins {
		top = max(top, bin)
	}
	for b.skip < p.log2n && top < p.n>>(b.skip+1) {
		b.skip++
	}
	if quarter := p.n / 4; quarter > 0 {
		b.colLo = quarter
		for _, bin := range bins {
			b.colLo = min(b.colLo, bin%quarter)
			b.colHi = max(b.colHi, bin%quarter+1)
		}
		b.firstOnly = top < quarter
	}
	return b
}

// WorkLen returns the length of the pencil Analyze and Synthesize work
// in: n, or the padded convolution length of a Bluestein plan.
func (b *Band) WorkLen() int { return max(b.p.n, b.p.m) }

// Analyze transforms one complex64 trace (length n) and writes the band,
// each bin times scale, to dst[f·stride] in the band's order. work is the
// pencil, WorkLen elements whose contents on entry are ignored; the trace
// is read before dst is written, so the two may alias. Every kept bin has
// the bits Plan.Forward gives it: the band only drops butterflies whose
// result nothing reads.
func (b *Band) Analyze(dst []complex64, stride int, src []complex64, scale float64, work []complex128) {
	p := b.p
	x := work[:b.WorkLen()]
	if p.log2n >= 0 {
		from := 0
		if p.log2n >= 2 {
			loadPair(x, src[:p.n], p.rev, p.tw)
			from = 2
		} else {
			for i, r := range p.rev {
				x[i] = complex128(src[r])
			}
		}
		p.butterflies(x, from, b)
		for f, bin := range b.bins {
			v := x[bin]
			dst[f*stride] = complex64(complex(real(v)*scale, imag(v)*scale))
		}
		return
	}
	for k, c := range p.chirp {
		x[k] = complex128(src[k]) * c
	}
	clear(x[p.n:])
	p.convolve(x)
	for f, bin := range b.bins {
		v := x[bin] * p.chirp[bin]
		dst[f*stride] = complex64(complex(real(v)*scale, imag(v)*scale))
	}
}

// Synthesize inverts a spectrum that is zero off the band: bin f of the
// band is read from src[f·stride], and the n time samples, each times 1/n
// and then scale, are written to dst. work is as for Analyze, and the
// band is read before dst is written. The samples have the bits
// Plan.Inverse gives the zero-padded spectrum, up to the sign of a zero: a
// butterfly whose second operand is a structural zero is a copy, and is
// done as one.
func (b *Band) Synthesize(dst []complex64, src []complex64, stride int, scale float64, work []complex128) {
	p := b.p
	x := work[:b.WorkLen()]
	clear(x)
	inv := 1 / float64(p.n)
	if p.log2n >= 0 {
		rep := 1 << b.skip
		for f, bin := range b.bins {
			v := src[f*stride]
			c := complex(float64(real(v)), -float64(imag(v)))
			block := x[p.rev[bin]:][:rep]
			for j := range block {
				block[j] = c
			}
		}
		p.butterflies(x, b.skip, nil)
		dst = dst[:p.n]
		for t, v := range x {
			dst[t] = complex64(complex(real(v)*inv*scale, -imag(v)*inv*scale))
		}
		return
	}
	for f, bin := range b.bins {
		v := src[f*stride]
		x[bin] = complex(float64(real(v)), -float64(imag(v))) * p.chirp[bin]
	}
	p.convolve(x)
	for t, c := range p.chirp {
		v := x[t] * c
		dst[t] = complex64(complex(real(v)*inv*scale, -imag(v)*inv*scale))
	}
}

// butterflies runs stages [from, log2n) over x, whose elements are in
// bit-reversed order, two stages per pass (a leftover odd stage goes
// first). Every element sees the operations of the one-stage-at-a-time
// loop in the same order, so the grouping moves no bit. Given a band, the
// last pass computes only what the band reads.
func (p *Plan) butterflies(x []complex128, from int, band *Band) {
	s := from
	if (p.log2n-s)%2 == 1 {
		half := 1 << s
		stage(x, p.tw[half-1:2*half-1])
		s++
	}
	for ; s < p.log2n; s += 2 {
		half := 1 << s
		w1, w2 := p.tw[half-1:2*half-1], p.tw[2*half-1:4*half-1]
		switch {
		case band == nil || s+2 < p.log2n:
			stagePair(x, w1, w2, 0, half)
		case band.firstOnly:
			firstOutputs(x, w1, w2, band.colLo, band.colHi)
		default:
			stagePair(x, w1, w2, band.colLo, band.colHi)
		}
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

// stagePair is two consecutive stages in one pass over columns [lo, hi)
// of every block of 4·len(w1) elements: the four elements of a column go
// through the first stage's two butterflies and the second stage's two
// while in registers.
func stagePair(x, w1, w2 []complex128, lo, hi int) {
	half := len(w1)
	w1 = w1[lo:hi]
	cols := len(w1)
	w2a := w2[lo:][:cols]
	w2b := w2[half+lo:][:cols]
	for start := lo; start < len(x); start += 4 * half {
		g0 := x[start:][:cols]
		g1 := x[start+half:][:cols]
		g2 := x[start+2*half:][:cols]
		g3 := x[start+3*half:][:cols]
		for k, w := range w1 {
			b1, b3 := g1[k]*w, g3[k]*w
			a0, a1 := g0[k]+b1, g0[k]-b1
			a2, a3 := g2[k]+b3, g2[k]-b3
			c2, c3 := a2*w2a[k], a3*w2b[k]
			g0[k], g2[k] = a0+c2, a0-c2
			g1[k], g3[k] = a1+c3, a1-c3
		}
	}
}

// loadPair is the first stagePair (blocks of four, one column) fused
// with the load that feeds it: the trace is widened straight into
// bit-reversed order and through stages 0 and 1 before it is stored.
func loadPair(x []complex128, src []complex64, rev []int32, tw []complex128) {
	w, w2a, w2b := tw[0], tw[1], tw[2]
	for i := 0; i+3 < len(rev) && i+3 < len(x); i += 4 {
		g0, g1 := complex128(src[rev[i]]), complex128(src[rev[i+1]])
		g2, g3 := complex128(src[rev[i+2]]), complex128(src[rev[i+3]])
		b1, b3 := g1*w, g3*w
		a0, a1 := g0+b1, g0-b1
		a2, a3 := g2+b3, g2-b3
		c2, c3 := a2*w2a, a3*w2b
		x[i], x[i+2] = a0+c2, a0-c2
		x[i+1], x[i+3] = a1+c3, a1-c3
	}
}

// firstOutputs is stagePair's last pass (one block) when only the first
// output of columns [lo, hi) is read: three multiplies a column instead
// of four.
func firstOutputs(x, w1, w2 []complex128, lo, hi int) {
	half := len(w1)
	w1 = w1[lo:hi]
	cols := len(w1)
	w2 = w2[lo:][:cols]
	g0 := x[lo:][:cols]
	g1 := x[half+lo:][:cols]
	g2 := x[2*half+lo:][:cols]
	g3 := x[3*half+lo:][:cols]
	for k, w := range w1 {
		g0[k] = (g0[k] + g1[k]*w) + (g2[k]+g3[k]*w)*w2[k]
	}
}

// convolve is the Bluestein middle: a (length m, zero beyond the n
// chirped samples) is convolved with the conjugate chirp through the
// radix-2 plan.
func (p *Plan) convolve(a []complex128) {
	p.mplan.Forward(a)
	for k, b := range p.bfft {
		a[k] *= b
	}
	p.mplan.Inverse(a)
}

// RFFT computes the one-sided spectrum of a real time series of length nt:
// it returns nt/2+1 complex coefficients (frequencies 0..Nyquist). This is
// the transform applied to each seismic trace before frequency-domain MDC.
func RFFT(x []float64) []complex128 {
	nt := len(x)
	p := NewPlan(nt)
	buf := make([]complex128, nt)
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	p.Forward(buf)
	return buf[:nt/2+1]
}

// IRFFT reconstructs a real time series of length nt from its one-sided
// spectrum (length nt/2+1), inverting RFFT.
func IRFFT(spec []complex128, nt int) []float64 {
	if len(spec) != nt/2+1 {
		panic("fft: IRFFT spectrum length mismatch")
	}
	full := make([]complex128, nt)
	copy(full, spec)
	for k := 1; k < len(spec)-1; k++ {
		full[nt-k] = cmplx.Conj(spec[k])
	}
	if nt%2 != 0 && len(spec) >= 2 {
		// odd nt: mirror all but DC
		for k := 1; k < len(spec); k++ {
			full[nt-k] = cmplx.Conj(spec[k])
		}
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
