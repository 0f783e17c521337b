// Package qr implements the rank-revealing (column-pivoted) QR
// factorization for complex single-precision matrices. RRQR is one of the
// algebraic compression methods the paper cites for building TLR tiles
// ([16, 18] in the paper); the TLR compressor uses it as the fast
// alternative to the SVD. The SVD runs the same pivoted core at tolerance
// 0 (Full) to precondition its Jacobi sweeps.
//
// Internally factorizations accumulate in complex128 for stability and
// return complex64 factors.
package qr

import (
	"math"
	"math/cmplx"

	"repro/internal/dense"
)

// Factorization holds a pivoted QR factorization A P = Q R with Q m×k
// having orthonormal columns, R k×n upper triangular (trapezoidal), and
// Piv the column permutation (Piv[j] = original column index placed at j).
type Factorization struct {
	Q   *dense.Matrix
	R   *dense.Matrix
	Piv []int
}

// RRQR computes a rank-revealing QR with column pivoting, stopping when the
// trailing column norms fall below tol·‖A‖F (relative). It returns a
// truncated factorization: Q is m×r, R is r×n (pivoted order), Piv the
// permutation.
func RRQR(a *dense.Matrix, tol float64) *Factorization {
	m, n := a.Rows, a.Cols
	q := toC128(a)
	r, kmax, piv, rank := pivoted(q, m, n, tol)
	if rank == 0 {
		rank = 1 // always return at least rank 1 so factors are usable
		// column 0 may be zero; Q col is zero then, R row zero: still valid A≈QR
		if nrm2col(q, m, 0) == 0 {
			r[0] = 0
		}
	}
	// pack truncated factors
	qOut := dense.New(m, rank)
	for j := 0; j < rank; j++ {
		for i := 0; i < m; i++ {
			qOut.Set(i, j, complex64(q[j*m+i]))
		}
	}
	rOut := dense.New(rank, n)
	for j := 0; j < n; j++ {
		for i := 0; i < rank; i++ {
			rOut.Set(i, j, complex64(r[j*kmax+i]))
		}
	}
	return &Factorization{Q: qOut, R: rOut, Piv: piv}
}

// Full computes the complete column-pivoted factorization A P = Q R in
// complex128 for m >= n: RRQR's pivoted core at tolerance 0, unpacked.
// q holds Q (m×n, column-major), r holds R (n×n upper triangular,
// column-major) and piv the permutation, as in Factorization. The SVD
// preconditions its Jacobi sweeps with it.
func Full(a *dense.Matrix) (q, r []complex128, piv []int) {
	if a.Rows < a.Cols {
		panic("qr: Full needs a tall or square matrix")
	}
	q = toC128(a)
	r, _, piv, _ = pivoted(q, a.Rows, a.Cols, 0)
	return q, r, piv
}

// pivoted runs the column-pivoted two-pass modified Gram–Schmidt on the
// column-major m×n buffer q in place, leaving Q's columns in it. It stops
// once the trailing column energy is at most tol²·‖A‖F² (never at tol 0).
// R comes back column-major with leading dimension kmax = min(m, n), its
// first rank rows filled.
func pivoted(q []complex128, m, n int, tol float64) (r []complex128, kmax int, piv []int, rank int) {
	kmax = min(m, n)
	// working column norms (squared)
	norms := make([]float64, n)
	var total float64
	for j := 0; j < n; j++ {
		s := nrm2col(q, m, j)
		norms[j] = s * s
		total += s * s
	}
	thresh := tol * tol * total
	piv = make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	r = make([]complex128, kmax*n)
	for j := 0; j < kmax; j++ {
		// pick the column with the largest remaining norm
		best, bi := -1.0, j
		for p := j; p < n; p++ {
			if norms[p] > best {
				best, bi = norms[p], p
			}
		}
		if bi != j {
			swapcol(q, m, j, bi)
			norms[j], norms[bi] = norms[bi], norms[j]
			piv[j], piv[bi] = piv[bi], piv[j]
			// swap already-computed R rows' columns
			for p := 0; p < j; p++ {
				r[j*kmax+p], r[bi*kmax+p] = r[bi*kmax+p], r[j*kmax+p]
			}
		}
		// stopping: remaining energy below threshold
		var remaining float64
		for p := j; p < n; p++ {
			remaining += norms[p]
		}
		if tol > 0 && remaining <= thresh && j > 0 {
			break
		}
		// orthogonalize column j against previous (two-pass MGS)
		for pass := 0; pass < 2; pass++ {
			for p := 0; p < j; p++ {
				d := dotc128(q, m, p, j)
				r[j*kmax+p] += d
				axpy128(q, m, p, j, -d)
			}
		}
		nrm := nrm2col(q, m, j)
		r[j*kmax+j] = complex(nrm, 0)
		if nrm > 0 {
			scalcol(q, m, j, 1/nrm)
		}
		rank = j + 1
		// update trailing column norms and R entries
		for p := j + 1; p < n; p++ {
			d := dotc128(q, m, j, p)
			r[p*kmax+j] = d
			axpy128(q, m, j, p, -d)
			norms[p] -= real(d)*real(d) + imag(d)*imag(d)
			if norms[p] < 0 {
				norms[p] = 0
			}
		}
	}
	return r, kmax, piv, rank
}

// Rank returns the number of columns of Q, the revealed numerical rank.
func (f *Factorization) Rank() int { return f.Q.Cols }

// helpers over column-major complex128 buffers

func toC128(a *dense.Matrix) []complex128 {
	m, n := a.Rows, a.Cols
	out := make([]complex128, m*n)
	for j := 0; j < n; j++ {
		col := a.Col(j)
		for i, v := range col {
			out[j*m+i] = complex128(v)
		}
	}
	return out
}

func dotc128(q []complex128, m, p, j int) complex128 {
	var acc complex128
	cp := q[p*m : p*m+m]
	cj := q[j*m : j*m+m]
	for i := range cp {
		acc += cmplx.Conj(cp[i]) * cj[i]
	}
	return acc
}

func axpy128(q []complex128, m, p, j int, alpha complex128) {
	cp := q[p*m : p*m+m]
	cj := q[j*m : j*m+m]
	for i := range cp {
		cj[i] += alpha * cp[i]
	}
}

func nrm2col(q []complex128, m, j int) float64 {
	var s float64
	for _, v := range q[j*m : j*m+m] {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

func scalcol(q []complex128, m, j int, s float64) {
	for i := j * m; i < j*m+m; i++ {
		q[i] = complex(real(q[i])*s, imag(q[i])*s)
	}
}

func swapcol(q []complex128, m, a, b int) {
	ca := q[a*m : a*m+m]
	cb := q[b*m : b*m+m]
	for i := range ca {
		ca[i], cb[i] = cb[i], ca[i]
	}
}
