//go:build !amd64

package cfloat

func gemvN(n int, alpha complex64, a []complex64, lda int, x, y []complex64) {
	gemvNGo(n, alpha, a, lda, x, y)
}

func gemvC(n int, alpha complex64, a []complex64, lda int, x []complex64, beta complex64, y []complex64) {
	gemvCGo(n, alpha, a, lda, x, beta, y)
}

func axpy(alpha complex64, x, y []complex64) {
	axpyGo(alpha, x, y)
}
