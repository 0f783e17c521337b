package cfloat

// The two Gemv loops in 256-bit AVX assembly (gemv_amd64.s), bit for bit
// gemvNGo and gemvCGo, where the CPU and OS support AVX; the Go loops
// elsewhere. Gemv has checked every length they rely on: len(a) covers n
// columns of lda (the last one m rows), len(x) ≥ n and len(y) = m
// forward, len(x) = m and len(y) ≥ n adjoint.

// useAVX selects the assembly. It is decided once, at start-up, from
// CPUID and XGETBV.
var useAVX = hasAVX()

// hasAVX reports whether the CPU has AVX and the OS saves YMM state.
func hasAVX() bool

// gemvN accumulates y += alpha·A·x, len(y) rows by n columns.
func gemvN(n int, alpha complex64, a []complex64, lda int, x, y []complex64) {
	if useAVX {
		gemvNAVX(n, alpha, a, lda, x, y)
	} else {
		gemvNGo(n, alpha, a, lda, x, y)
	}
}

// gemvC computes y[j] = alpha·(A[:,j]ᴴ·x) + beta·y[j] for n columns of
// len(x) rows.
func gemvC(n int, alpha complex64, a []complex64, lda int, x []complex64, beta complex64, y []complex64) {
	if useAVX {
		gemvCAVX(n, alpha, a, lda, x, beta, y)
	} else {
		gemvCGo(n, alpha, a, lda, x, beta, y)
	}
}

//go:noescape
func gemvNAVX(n int, alpha complex64, a []complex64, lda int, x, y []complex64)

//go:noescape
func gemvCAVX(n int, alpha complex64, a []complex64, lda int, x []complex64, beta complex64, y []complex64)

// axpy adds alpha·x to y in packed SSE2 (axpy_amd64.s), bit for bit
// axpyGo. Axpy has checked len(x) == len(y) and alpha != 0.
//
//go:noescape
func axpy(alpha complex64, x, y []complex64)
