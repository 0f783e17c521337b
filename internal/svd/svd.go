// Package svd implements a one-sided Jacobi singular value decomposition
// for complex matrices. The SVD is "the work horse of linear algebra" the
// paper leans on for TLR tile compression (§6.6 notes it is unavailable in
// the Cerebras SDK and therefore runs on the host — exactly where this
// package sits in our pipeline).
//
// One-sided Jacobi is chosen because it is simple, numerically robust, and
// highly accurate for the small tile sizes (nb ≤ 70) the paper uses; its
// O(mn²·sweeps) cost is irrelevant next to the MVM workload being studied.
//
// Computation is performed in complex128 and results are returned as
// complex64 factors for the single-precision pipeline.
package svd

import (
	"math"
	"math/cmplx"

	"repro/internal/dense"
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
	// convergence threshold on |a_p·a_q| / (‖a_p‖‖a_q‖)
	offTol = 1e-14
)

// Decompose computes the thin SVD of A via one-sided Jacobi rotations
// applied to the columns of A (for m >= n; the transpose is handled
// internally for m < n).
func Decompose(a *dense.Matrix) *SVD {
	if a.Rows < a.Cols {
		s := Decompose(a.ConjTranspose())
		return &SVD{U: s.V, S: s.S, V: s.U}
	}
	m, n := a.Rows, a.Cols
	// Work on a complex128 copy of A; accumulate V as the product of the
	// applied rotations.
	w := make([]complex128, m*n)
	for j := 0; j < n; j++ {
		col := a.Col(j)
		for i, x := range col {
			w[j*m+i] = complex128(x)
		}
	}
	v := make([]complex128, n*n)
	for i := 0; i < n; i++ {
		v[i*n+i] = 1
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		converged := true
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				if rotatePair(w, v, m, n, p, q) {
					converged = false
				}
			}
		}
		if converged {
			break
		}
	}
	// singular values are the column norms; U the normalized columns
	type colNorm struct {
		idx int
		s   float64
	}
	svals := make([]colNorm, n)
	for j := 0; j < n; j++ {
		svals[j] = colNorm{j, colNorm2(w, m, j)}
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
	vv := dense.New(n, n)
	s := make([]float64, n)
	for j := 0; j < n; j++ {
		src := svals[j].idx
		s[j] = svals[j].s
		inv := 0.0
		if s[j] > 0 {
			inv = 1 / s[j]
		}
		for i := 0; i < m; i++ {
			x := w[src*m+i]
			u.Set(i, j, complex64(complex(real(x)*inv, imag(x)*inv)))
		}
		for i := 0; i < n; i++ {
			vv.Set(i, j, complex64(v[src*n+i]))
		}
	}
	return &SVD{U: u, S: s, V: vv}
}

// rotatePair applies a two-sided complex Jacobi rotation to columns p, q of
// w (and the same rotation to v), returning true if a rotation was applied.
func rotatePair(w, v []complex128, m, n, p, q int) bool {
	cp := w[p*m : p*m+m]
	cq := w[q*m : q*m+m]
	var app, aqq float64
	var apq complex128
	for i := 0; i < m; i++ {
		app += real(cp[i])*real(cp[i]) + imag(cp[i])*imag(cp[i])
		aqq += real(cq[i])*real(cq[i]) + imag(cq[i])*imag(cq[i])
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
	s := c * t
	cs := complex(c, 0)
	sPhase := complex(s, 0) * phase
	sPhaseConj := cmplx.Conj(sPhase)
	for i := 0; i < m; i++ {
		wp := cp[i]
		wq := cq[i]
		cp[i] = cs*wp - sPhaseConj*wq
		cq[i] = sPhase*wp + cs*wq
	}
	vp := v[p*n : p*n+n]
	vq := v[q*n : q*n+n]
	for i := 0; i < n; i++ {
		xp := vp[i]
		xq := vq[i]
		vp[i] = cs*xp - sPhaseConj*xq
		vq[i] = sPhase*xp + cs*xq
	}
	return true
}

func colNorm2(w []complex128, m, j int) float64 {
	var s float64
	for _, x := range w[j*m : j*m+m] {
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	return math.Sqrt(s)
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

// Reconstruct forms U·diag(S)·Vᴴ.
func (d *SVD) Reconstruct() *dense.Matrix {
	uk, vk := d.Truncate(len(d.S))
	return dense.Mul(uk, vk.ConjTranspose())
}
