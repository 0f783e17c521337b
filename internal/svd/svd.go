// Package svd implements a QR-preconditioned one-sided Jacobi singular
// value decomposition for complex matrices. The SVD is "the work horse of
// linear algebra" the paper leans on for TLR tile compression (§6.6 notes
// it is unavailable in the Cerebras SDK and therefore runs on the host —
// exactly where this package sits in our pipeline).
//
// One-sided Jacobi is chosen because it is simple, numerically robust, and
// highly accurate for the small tile sizes (nb ≤ 70) the paper uses. Its
// cost is not negligible: it is the bulk of every TLR build, so it runs
// the preconditioned variant of Drmač and Veselić ("New fast and accurate
// Jacobi SVD algorithm", SIAM J. Matrix Anal. Appl. 29(4), 2008). A tall
// tile (a wide one is transposed) is first factored A P = Q R with column
// pivoting — internal/qr's pivoted core, the one RRQR runs — and the
// rotations run on the n×n matrix Rᴴ, whose columns are graded the way
// the pivoting ordered them. On the graded tiles of a Hilbert-sorted
// kernel that cuts the sweeps per nb-24 tile from 14–15 to about 4.
//
// The sweeps stop once every column pair is orthogonal to 2⁻²⁴ of its
// norms, the unit roundoff of the complex64 factors returned; a tighter
// stop buys digits the factors cannot hold (the singular values move by
// about the square of the stop, far below 1e-12·σ₁). Computation is
// performed in complex128 and results are returned as complex64 factors
// for the single-precision pipeline.
package svd

import (
	"math"
	"math/cmplx"

	"repro/internal/dense"
	"repro/internal/qr"
)

// SVD holds a thin singular value decomposition A = U·diag(S)·Vᴴ with
// U m×k, S length k (descending, nonnegative), V n×k, k = min(m, n).
type SVD struct {
	U *dense.Matrix
	S []float64
	V *dense.Matrix
}

const (
	maxSweeps = 60
	// offTol stops the sweeps once every column pair satisfies
	// |a_pᴴa_q| <= offTol·‖a_p‖‖a_q‖: 2⁻²⁴, the unit roundoff of the
	// complex64 factors Decompose returns.
	offTol = 0x1p-24
)

// Decompose computes the thin SVD of A: a column-pivoted QR A P = Q R,
// then one-sided Jacobi rotations on the columns of Rᴴ (for m >= n; the
// transpose is handled internally for m < n).
func Decompose(a *dense.Matrix) *SVD {
	d, _ := decompose(a)
	return d
}

// decompose is Decompose, also returning the number of Jacobi sweeps it
// ran, the last one being the check that finds nothing to rotate.
func decompose(a *dense.Matrix) (*SVD, int) {
	if a.Rows < a.Cols {
		s, sweeps := decompose(a.ConjTranspose())
		return &SVD{U: s.V, S: s.S, V: s.U}, sweeps
	}
	m, n := a.Rows, a.Cols
	q, r, piv := qr.Full(a)
	// Jacobi runs on the n×n matrix Rᴴ, its rotations V_x accumulated in
	// Q's columns: Rᴴ·V_x ends with mutually orthogonal columns,
	// U_x·diag(S), so A = (Q·V_x)·diag(S)·(P·U_x)ᴴ.
	w := make([]complex128, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			w[i*n+j] = cmplx.Conj(r[j*n+i])
		}
	}
	// nrm2 holds each column's squared norm, recomputed by every rotation
	nrm2 := make([]float64, n)
	for j := range nrm2 {
		nrm2[j] = sumSq(w[j*n : j*n+n])
	}
	sweeps := 0
	for sweeps < maxSweeps {
		sweeps++
		converged := true
		for k := 0; k < n-1; k++ {
			for l := k + 1; l < n; l++ {
				if rotatePair(w, nrm2, n, q, m, k, l) {
					converged = false
				}
			}
		}
		if converged {
			break
		}
	}
	// singular values are the column norms of Rᴴ·V_x, sorted descending
	type colNorm struct {
		idx int
		s   float64
	}
	svals := make([]colNorm, n)
	for j := 0; j < n; j++ {
		svals[j] = colNorm{j, math.Sqrt(nrm2[j])}
	}
	// selection sort descending (n is small for tiles; fine in general too)
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if svals[j].s > svals[best].s {
				best = j
			}
		}
		svals[i], svals[best] = svals[best], svals[i]
	}
	u := dense.New(m, n)
	v := dense.New(n, n)
	s := make([]float64, n)
	for j := 0; j < n; j++ {
		src := svals[j].idx
		s[j] = svals[j].s
		// U = Q·V_x
		for i, x := range q[src*m : src*m+m] {
			u.Data[j*m+i] = complex64(x)
		}
		// V = P·(normalised columns of Rᴴ·V_x)
		inv := 0.0
		if s[j] > 0 {
			inv = 1 / s[j]
		}
		for i, x := range w[src*n : src*n+n] {
			v.Data[j*n+piv[i]] = complex64(complex(real(x)*inv, imag(x)*inv))
		}
	}
	return &SVD{U: u, S: s, V: v}, sweeps
}

// rotatePair applies a complex Jacobi rotation to columns p, q of the
// n×n matrix w (and the same rotation to those of the m-row matrix acc)
// unless they are orthogonal to offTol, returning true if it rotated.
// nrm2 holds the squared column norms of w and is kept current.
func rotatePair(w []complex128, nrm2 []float64, n int, acc []complex128, m, p, q int) bool {
	cp := w[p*n : p*n+n]
	cq := w[q*n : q*n+n]
	app, aqq := nrm2[p], nrm2[q]
	var apq complex128
	for i := range cp {
		apq += cmplx.Conj(cp[i]) * cq[i]
	}
	absApq := cmplx.Abs(apq)
	if absApq <= offTol*math.Sqrt(app*aqq) || absApq == 0 {
		return false
	}
	// Complex Jacobi: factor out the phase of apq, then a real rotation.
	phase := apq / complex(absApq, 0)
	tau := (aqq - app) / (2 * absApq)
	var t float64
	if tau >= 0 {
		t = 1 / (tau + math.Sqrt(1+tau*tau))
	} else {
		t = -1 / (-tau + math.Sqrt(1+tau*tau))
	}
	c := 1 / math.Sqrt(1+t*t)
	sPhase := complex(c*t, 0) * phase
	rotate(cp, cq, c, sPhase)
	rotate(acc[p*m:p*m+m], acc[q*m:q*m+m], c, sPhase)
	nrm2[p], nrm2[q] = sumSq(cp), sumSq(cq)
	return true
}

// rotate sets (x, y) to (c·x − conj(sp)·y, sp·x + c·y).
func rotate(x, y []complex128, c float64, sp complex128) {
	spc := cmplx.Conj(sp)
	for i := range x {
		xi, yi := x[i], y[i]
		x[i] = complex(c*real(xi), c*imag(xi)) - spc*yi
		y[i] = sp*xi + complex(c*real(yi), c*imag(yi))
	}
}

// sumSq returns Σ|x_i|².
func sumSq(x []complex128) float64 {
	var s float64
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return s
}

// Rank returns the numerical rank at relative tolerance tol: the smallest k
// such that the discarded tail satisfies sqrt(Σ_{i>=k} s_i²) <= tol·‖A‖F.
// This matches the tile-accuracy criterion acc of the paper (truncation in
// the Frobenius norm). Always at least 1 for a nonzero matrix.
func (d *SVD) Rank(tol float64) int {
	var total float64
	for _, s := range d.S {
		total += s * s
	}
	if total == 0 {
		return 1
	}
	budget := tol * tol * total
	var tail float64
	k := len(d.S)
	for k > 1 {
		s := d.S[k-1]
		if tail+s*s > budget {
			break
		}
		tail += s * s
		k--
	}
	return k
}

// Truncate returns the rank-k factors (U_k scaled by S_k, and V_k) so that
// A ≈ Uk·Vkᴴ. Uk is m×k with the singular values folded in; Vk is n×k.
// This is the U/V base pair stored per tile by the TLR format (Fig. 3).
func (d *SVD) Truncate(k int) (uk, vk *dense.Matrix) {
	if k < 1 {
		k = 1
	}
	if k > len(d.S) {
		k = len(d.S)
	}
	m := d.U.Rows
	n := d.V.Rows
	uk = dense.New(m, k)
	vk = dense.New(n, k)
	for j := 0; j < k; j++ {
		s := float32(d.S[j])
		ucol := d.U.Col(j)
		dst := uk.Col(j)
		for i, x := range ucol {
			dst[i] = x * complex(s, 0)
		}
		copy(vk.Col(j), d.V.Col(j))
	}
	return uk, vk
}
