package cfloat

// The two Gemv loops in packed SSE (gemv_amd64.s), bit for bit gemvNGo
// and gemvCGo. Gemv has checked every length they rely on: len(a) covers
// n columns of lda (the last one m rows), len(x) ≥ n and len(y) = m
// forward, len(x) = m and len(y) ≥ n adjoint.

// gemvN accumulates y += alpha·A·x, len(y) rows by n columns.
//
//go:noescape
func gemvN(n int, alpha complex64, a []complex64, lda int, x, y []complex64)

// gemvC computes y[j] = alpha·(A[:,j]ᴴ·x) + beta·y[j] for n columns of
// len(x) rows.
//
//go:noescape
func gemvC(n int, alpha complex64, a []complex64, lda int, x []complex64, beta complex64, y []complex64)

// axpy adds alpha·x to y in packed SSE2 (axpy_amd64.s), bit for bit
// axpyGo. Axpy has checked len(x) == len(y) and alpha != 0.
//
//go:noescape
func axpy(alpha complex64, x, y []complex64)
