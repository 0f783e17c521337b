// CG on the normal equations with a fused AᴴA pass: where standard CGLS
// applies A and Aᴴ separately each iteration (two sweeps over the TLR
// factors), this variant touches the operator once per iteration through
// lsqr.StepOperator at α = 0 — for the TLR-backed MDC operator one
// tlr.Matrix.MulVecStep sweep, which reads each tile row's tiles for the
// adjoint half while the forward half has left them in cache.
// The trade is the classic CGNR one: the iteration tracks the normal
// residual Aᴴ(b−Ax) instead of the plain residual b−Ax, squaring the
// condition number seen by the recurrence, so it is offered as a solver
// ablation next to Solve, not as a replacement.
package cgls

import (
	"errors"

	"repro/internal/cfloat"
	"repro/internal/lsqr"
	"repro/internal/obs"
)

var (
	obsNormalSolve = obs.NewTimer("cgls.normal.solve")
	obsNormalIter  = obs.NewTimer("cgls.normal.iter")
	obsNormalIters = obs.NewCounter("cgls.normal.iters")
)

// SolveNormal runs CG directly on (AᴴA + damp²I) x = Aᴴb. When a
// implements lsqr.StepOperator its ApplyStep at α = 0 carries the whole
// per-iteration operator work; otherwise the pass is the explicit
// adjoint∘forward composition, with the same bits. In exact arithmetic
// the iterates coincide with Solve's; in float32 they drift apart at
// roughly the square of the condition number.
//
// Because the plain residual b − Ax is never formed, Result.ResidualNorm
// and Result.ResidualHistory report the normal residual ‖Aᴴ(b−Ax)‖ (the
// quantity the stopping rule tests), and Result.NormalResidual equals
// ResidualNorm.
func SolveNormal(a lsqr.Operator, b []complex64, opts Options) (*Result, error) {
	defer obsNormalSolve.Start().End()
	m, n := a.Rows(), a.Cols()
	if len(b) != m {
		return nil, errors.New("cgls: rhs length mismatch")
	}
	if opts.MaxIters <= 0 {
		opts.MaxIters = 30
	}
	if opts.Tol == 0 {
		opts.Tol = 1e-8
	}
	damp2 := complex(float32(opts.Damp*opts.Damp), 0)

	stepper, fused := a.(lsqr.StepOperator)
	q := make([]complex64, m) // A p, between the two halves
	applyNormal := func(p, w []complex64) {
		if fused {
			stepper.ApplyStep(p, 0, nil, q, w)
		} else {
			a.Apply(p, q)
			a.ApplyAdjoint(q, w)
		}
		if opts.Damp > 0 {
			for i := range w {
				w[i] += damp2 * p[i]
			}
		}
	}

	res := &Result{X: make([]complex64, n)}
	x := res.X
	rn := make([]complex64, n) // normal residual Aᴴb − (AᴴA+damp²I)x
	a.ApplyAdjoint(b, rn)
	gamma := real2(cfloat.Dotc(rn, rn))
	gamma0 := gamma
	if gamma0 == 0 {
		res.Converged = true
		return res, nil
	}
	p := append([]complex64(nil), rn...)
	w := make([]complex64, n)
	for it := 0; it < opts.MaxIters; it++ {
		iterSpan := obsNormalIter.Start()
		applyNormal(p, w)
		den := real2(cfloat.Dotc(p, w))
		if den <= 0 {
			// Lost positive definiteness to rounding: stop at the current
			// iterate rather than divide by a junk curvature.
			iterSpan.End()
			break
		}
		alpha := complex(float32(gamma/den), 0)
		cfloat.Axpy(alpha, p, x)
		cfloat.Axpy(-alpha, w, rn)
		gammaNew := real2(cfloat.Dotc(rn, rn))
		res.Iters = it + 1
		res.ResidualNorm = sqrt(gammaNew)
		res.NormalResidual = res.ResidualNorm
		res.ResidualHistory = append(res.ResidualHistory, res.ResidualNorm)
		obsNormalIters.Add(1)
		if d := iterSpan.End(); d > 0 {
			res.IterTimes = append(res.IterTimes, d)
		}
		if gammaNew <= opts.Tol*opts.Tol*gamma0 {
			res.Converged = true
			break
		}
		beta := complex(float32(gammaNew/gamma), 0)
		for i := range p {
			p[i] = rn[i] + beta*p[i]
		}
		gamma = gammaNew
	}
	return res, nil
}
