// Package cfloat provides single-precision complex vector and matrix
// primitives used throughout the TLR-MVM reproduction: BLAS-like level-1
// and level-2 routines over complex64, plus the split-plane real GEMV the
// paper's Cerebras kernel decomposes a complex MVM into (§6.6; wsesim
// runs the four-real decomposition on it).
//
// All routines are allocation-free on their hot paths. The products the
// solve streams — Gemv in both directions, Scal — run in
// float32 real/imaginary arithmetic, the tile's native precision: a
// complex64 `*` is not that (gc computes it in float64), so those loops
// spell the four real multiplies out. The reductions to one number —
// Dotc and Nrm2 — accumulate in float64, where it measurably
// improves accuracy, and Gemm and Axpy, which run at set-up only, keep
// the widened arithmetic their pinned results were computed with (Axpy
// in packed SSE2 on amd64, bit for bit its Go loop).
package cfloat

import (
	"math"
	"math/bits"
)

// Trans selects the operation applied to a matrix operand.
type Trans int

const (
	// NoTrans applies the matrix as stored: y = A x.
	NoTrans Trans = iota
	// ConjTrans applies the conjugate (Hermitian) transpose: y = Aᴴ x.
	ConjTrans
)

func (t Trans) String() string {
	switch t {
	case NoTrans:
		return "N"
	case ConjTrans:
		return "C"
	}
	return "?"
}

// Axpy computes y += alpha*x elementwise. x and y must have equal length.
// A zero alpha (either sign) leaves y untouched, even where x holds an
// Inf or NaN.
//
// Each element is gc's complex64 product alpha·x[i] — taken in float64,
// rounded once to float32 per part — added to y[i] in float32. On amd64
// the loop is packed SSE2 (axpy_amd64.s), bit for bit axpyGo, which
// every other GOARCH runs and the tests hold the assembly to.
func Axpy(alpha complex64, x, y []complex64) {
	if len(x) != len(y) {
		panic("cfloat: Axpy length mismatch")
	}
	if alpha == 0 {
		return
	}
	axpy(alpha, x, y)
}

// axpyGo is Axpy's loop in Go: axpy on every GOARCH without an assembly
// body and the reference the amd64 one is == to.
func axpyGo(alpha complex64, x, y []complex64) {
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scal scales x in place by alpha, in float32 arithmetic: two multiplies
// per element for a real alpha (what every caller outside the tests
// passes), the four-multiply complex product otherwise.
func Scal(alpha complex64, x []complex64) {
	if s := real(alpha); imag(alpha) == 0 {
		for i, v := range x {
			x[i] = complex(s*real(v), s*imag(v))
		}
		return
	}
	for i, v := range x {
		x[i] = mul(alpha, v)
	}
}

// ScaleSub overwrites t with c·t − s·z, the vector update of one LSQR
// step, and returns the norm of what it wrote. It is Scal by c followed
// by a real-scalar subtract, with the same float32 roundings: c = 1
// changes nothing, and the float32 conversions keep an FMA-fusing target
// from merging a product into the subtract beside it. The norm is
// accumulated in float64 in index order, exactly as Nrm2 would on a
// second pass over t.
func ScaleSub(c float32, t []complex64, s float32, z []complex64) float64 {
	z = z[:len(t)]
	var ss float64
	for i, ti := range t {
		re := float32(c*real(ti)) - float32(s*real(z[i]))
		im := float32(c*imag(ti)) - float32(s*imag(z[i]))
		t[i] = complex(re, im)
		ss += float64(re)*float64(re) + float64(im)*float64(im)
	}
	return math.Sqrt(ss)
}

// Dotc returns xᴴ y (x conjugated), accumulating in float64.
func Dotc(x, y []complex64) complex64 {
	if len(x) != len(y) {
		panic("cfloat: Dotc length mismatch")
	}
	var re, im float64
	for i := range x {
		xr := float64(real(x[i]))
		xi := float64(imag(x[i]))
		yr := float64(real(y[i]))
		yi := float64(imag(y[i]))
		// conj(x)*y = (xr - i xi)(yr + i yi)
		re += xr*yr + xi*yi
		im += xr*yi - xi*yr
	}
	return complex(float32(re), float32(im))
}

// Nrm2 returns the Euclidean norm of x, accumulated in float64.
func Nrm2(x []complex64) float64 {
	var s float64
	for _, v := range x {
		r := float64(real(v))
		i := float64(imag(v))
		s += r*r + i*i
	}
	return math.Sqrt(s)
}

// Gemv computes y = alpha*op(A)*x + beta*y where A is m×n stored
// column-major in a with leading dimension lda, and op is NoTrans (x has
// length n, y length m) or ConjTrans (roles swapped).
//
// Both directions run in float32 real/imaginary arithmetic on the
// interleaved data — the four real FMAC streams of §6.6, not gc's
// complex64 product, which converts every operand to float64 and back.
// Sums therefore carry float32 rounding in column order (NoTrans) or row
// order (ConjTrans); internal/estimator's εe models exactly that.
//
// On amd64, where the CPU and OS support AVX (checked once at start-up),
// the two loops are 256-bit assembly (gemv_amd64.s): the forward one four
// rows per register, the adjoint one four columns per register, each
// computing the pure-Go loops' float32 operations in their order, so
// the results are bit for bit those of gemvNGo and gemvCGo, which every
// other host runs and the tests hold the assembly to. Those Go loops
// take two columns per pass, decided on the 1 GiB solve-dram operator
// rather than on a cached slice (EXPERIMENTS.md, "fp32 inner loops");
// the width moves no bit, because every y[i] and every accumulator takes
// its terms in the same order at any width.
//
// No column is skipped: a zero in x still multiplies its column, so an
// Inf or NaN in A reaches y as NaN (IEEE 0·Inf) in either direction.
func Gemv(t Trans, m, n int, alpha complex64, a []complex64, lda int, x []complex64, beta complex64, y []complex64) {
	if m < 0 || n < 0 || lda < max(1, m) {
		panic("cfloat: Gemv bad dimensions")
	}
	if m > 0 && n > 0 {
		// a must hold (n−1)·lda + m elements; the product is taken in 128
		// bits so a huge lda cannot wrap past the check
		if hi, lo := bits.Mul64(uint64(n-1), uint64(lda)); hi != 0 || len(a) < m || lo > uint64(len(a)-m) {
			panic("cfloat: Gemv matrix too short")
		}
	}
	switch t {
	case NoTrans:
		if len(x) < n || len(y) < m {
			panic("cfloat: Gemv vector too short")
		}
		y = y[:m]
		if beta == 0 {
			clear(y)
		} else if beta != 1 {
			Scal(beta, y)
		}
		gemvN(n, alpha, a, lda, x, y)
	case ConjTrans:
		if len(x) < m || len(y) < n {
			panic("cfloat: Gemv vector too short")
		}
		gemvC(n, alpha, a, lda, x[:m], beta, y)
	default:
		panic("cfloat: Gemv supports NoTrans and ConjTrans only")
	}
}

// mul returns a·b in float32 arithmetic.
func mul(a, b complex64) complex64 {
	ar, ai, br, bi := real(a), imag(a), real(b), imag(b)
	return complex(ar*br-ai*bi, ar*bi+ai*br)
}

// gemvNGo accumulates y += alpha·A·x, len(y) rows by n columns: y[i] is
// loaded and stored once per pair of columns. It is gemvN on every GOARCH
// without an assembly kernel and the reference the amd64 one is == to.
func gemvNGo(n int, alpha complex64, a []complex64, lda int, x, y []complex64) {
	j := 0
	for ; j+2 <= n; j += 2 {
		p0, p1 := mul(alpha, x[j]), mul(alpha, x[j+1])
		p0r, p0i, p1r, p1i := real(p0), imag(p0), real(p1), imag(p1)
		c0 := a[j*lda:][:len(y)]
		c1 := a[(j+1)*lda:][:len(y)]
		for i, yi := range y {
			v0r, v0i := real(c0[i]), imag(c0[i])
			v1r, v1i := real(c1[i]), imag(c1[i])
			y[i] = complex(
				real(yi)+v0r*p0r-v0i*p0i+v1r*p1r-v1i*p1i,
				imag(yi)+v0r*p0i+v0i*p0r+v1r*p1i+v1i*p1r)
		}
	}
	for ; j < n; j++ {
		p := mul(alpha, x[j])
		pr, pi := real(p), imag(p)
		c := a[j*lda:][:len(y)]
		for i, yi := range y {
			vr, vi := real(c[i]), imag(c[i])
			y[i] = complex(real(yi)+vr*pr-vi*pi, imag(yi)+vr*pi+vi*pr)
		}
	}
}

// gemvCGo computes y[j] = alpha·(A[:,j]ᴴ·x) + beta·y[j] for n columns of
// len(x) rows: every x[i] loaded feeds the independent accumulator pairs
// of two columns. It is gemvC without an assembly kernel and the
// reference the amd64 one is == to.
func gemvCGo(n int, alpha complex64, a []complex64, lda int, x []complex64, beta complex64, y []complex64) {
	j := 0
	for ; j+2 <= n; j += 2 {
		c0 := a[j*lda:][:len(x)]
		c1 := a[(j+1)*lda:][:len(x)]
		var s0r, s0i, s1r, s1i float32
		for i, xv := range x {
			xr, xi := real(xv), imag(xv)
			v0r, v0i := real(c0[i]), imag(c0[i])
			v1r, v1i := real(c1[i]), imag(c1[i])
			// conj(a)·x = (ar − i·ai)(xr + i·xi)
			s0r += v0r*xr + v0i*xi
			s0i += v0r*xi - v0i*xr
			s1r += v1r*xr + v1i*xi
			s1i += v1r*xi - v1i*xr
		}
		y[j] = axpby(alpha, complex(s0r, s0i), beta, y[j])
		y[j+1] = axpby(alpha, complex(s1r, s1i), beta, y[j+1])
	}
	for ; j < n; j++ {
		c := a[j*lda:][:len(x)]
		var sr, si float32
		for i, xv := range x {
			xr, xi := real(xv), imag(xv)
			vr, vi := real(c[i]), imag(c[i])
			sr += vr*xr + vi*xi
			si += vr*xi - vi*xr
		}
		y[j] = axpby(alpha, complex(sr, si), beta, y[j])
	}
}

// axpby returns alpha·s + beta·y in float32 arithmetic; beta == 0 ignores
// y, which may hold a NaN going in.
func axpby(alpha, s, beta, y complex64) complex64 {
	s = mul(alpha, s)
	if beta != 0 {
		s += mul(beta, y)
	}
	return s
}

// Gemm computes C = op(A)·B + beta·C with column-major storage, where
// op is NoTrans or ConjTrans: op(A) is m×k, B is k×n and C is m×n. The
// two are the layouts the pipeline multiplies: plain products (dense.Mul)
// and Vᴴ·X panels (tlrmmm).
func Gemm(ta Trans, m, n, k int, a []complex64, lda int, b []complex64, ldb int, beta complex64, c []complex64, ldc int) {
	if m < 0 || n < 0 || k < 0 || ldc < max(1, m) {
		panic("cfloat: Gemm bad dimensions")
	}
	if ta != NoTrans && ta != ConjTrans {
		panic("cfloat: Gemm supports NoTrans and ConjTrans only")
	}
	if beta == 0 {
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				c[j*ldc+i] = 0
			}
		}
	} else if beta != 1 {
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				c[j*ldc+i] *= beta
			}
		}
	}
	if k == 0 {
		return // op(A)·B is zero: a rank-0 tile's factors have no storage to read
	}
	if ta == NoTrans {
		for j := 0; j < n; j++ {
			cj := c[j*ldc : j*ldc+m]
			bj := b[j*ldb:]
			for l := 0; l < k; l++ {
				blj := bj[l]
				if blj == 0 {
					continue
				}
				al := a[l*lda : l*lda+m]
				for i, v := range al {
					cj[i] += v * blj
				}
			}
		}
		return
	}
	for j := 0; j < n; j++ {
		cj := c[j*ldc : j*ldc+m]
		bj := b[j*ldb : j*ldb+k]
		for i := 0; i < m; i++ {
			ai := a[i*lda : i*lda+k]
			var re, im float64
			for l, v := range ai {
				vr, vi := float64(real(v)), float64(imag(v))
				br, bi := float64(real(bj[l])), float64(imag(bj[l]))
				// conj(a)*b
				re += vr*br + vi*bi
				im += vr*bi - vi*br
			}
			cj[i] += complex(float32(re), float32(im))
		}
	}
}

// SplitReIm splits a complex vector into separate real and imaginary
// float32 vectors, the storage layout the CS-2 kernel operates on.
func SplitReIm(x []complex64, re, im []float32) {
	if len(re) != len(x) || len(im) != len(x) {
		panic("cfloat: SplitReIm length mismatch")
	}
	for i, v := range x {
		re[i] = real(v)
		im[i] = imag(v)
	}
}

// RealGemv computes y = A x + y over float32 with A m×n column-major.
// It is the primitive the CS-2 PE model executes: the complex MVM is
// decomposed into four of these (§6.6).
func RealGemv(m, n int, a []float32, lda int, x []float32, y []float32) {
	if lda < max(1, m) || len(x) < n || len(y) < m {
		panic("cfloat: RealGemv bad dimensions")
	}
	for j := 0; j < n; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		col := a[j*lda : j*lda+m]
		for i, v := range col {
			y[i] += v * xj
		}
	}
}
