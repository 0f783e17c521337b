package cfloat

// GemvGo is Gemv without its argument checks, on the pure-Go loops: the
// reference the amd64 assembly is held bit for bit to (elsewhere it is
// what Gemv runs).
func GemvGo(t Trans, m, n int, alpha complex64, a []complex64, lda int, x []complex64, beta complex64, y []complex64) {
	if t == ConjTrans {
		gemvCGo(n, alpha, a, lda, x[:m], beta, y)
		return
	}
	y = y[:m]
	if beta == 0 {
		clear(y)
	} else if beta != 1 {
		Scal(beta, y)
	}
	gemvNGo(n, alpha, a, lda, x, y)
}

// AxpyGo is Axpy without its length check, on the pure-Go loop: the
// reference the amd64 assembly is held bit for bit to.
func AxpyGo(alpha complex64, x, y []complex64) {
	if alpha != 0 {
		axpyGo(alpha, x, y)
	}
}
