// Package cgls implements the Conjugate Gradient Least Squares method as
// an alternative to LSQR for the MDD inversion. CGLS applies CG to the
// normal equations AᴴA x = Aᴴb without forming AᴴA; in exact arithmetic
// it generates the same Krylov iterates as LSQR but with slightly cheaper
// recurrences and slightly worse numerical behaviour on ill-conditioned
// systems — a useful solver ablation for the ill-posed MDD problem.
package cgls

import (
	"errors"
	"math"

	"repro/internal/cfloat"
	"repro/internal/lsqr"
	"repro/internal/obs"
)

// Solver metrics, mirroring the lsqr ones so the two MDD solvers report
// through the same vocabulary.
var (
	obsSolve = obs.NewTimer("cgls.solve")
	obsIter  = obs.NewTimer("cgls.iter")
	obsIters = obs.NewCounter("cgls.iters")
)

// Options mirrors the LSQR options where applicable.
type Options struct {
	// MaxIters bounds the iteration count (default 30).
	MaxIters int
	// Tol stops when ‖Aᴴr‖ / ‖Aᴴb‖ falls below it (default 1e-8).
	Tol float64
}

// Result reports the solve outcome.
type Result struct {
	X               []complex64
	Iters           int
	ResidualNorm    float64
	NormalResidual  float64
	ResidualHistory []float64
	Converged       bool
}

// Solve runs CGLS on the operator (reusing the lsqr.Operator interface).
func Solve(a lsqr.Operator, b []complex64, opts Options) (*Result, error) {
	defer obsSolve.Start().End()
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

	x := make([]complex64, n)
	r := make([]complex64, m) // r = b − A x (x starts at 0)
	copy(r, b)
	s := make([]complex64, n) // s = Aᴴ r, recomputed every iteration
	a.ApplyAdjoint(r, s)
	p := make([]complex64, n)
	copy(p, s)
	gamma := real2(cfloat.Dotc(s, s))
	gamma0 := gamma
	if gamma0 == 0 {
		return &Result{X: x, Converged: true}, nil
	}
	res := &Result{X: x}
	q := make([]complex64, m)
	for it := 0; it < opts.MaxIters; it++ {
		iterSpan := obsIter.Start()
		a.Apply(p, q)
		den := real2(cfloat.Dotc(q, q))
		if den == 0 {
			iterSpan.End()
			break
		}
		alpha := complex(float32(gamma/den), 0)
		cfloat.Axpy(alpha, p, x)
		cfloat.Axpy(-alpha, q, r)
		a.ApplyAdjoint(r, s)
		gammaNew := real2(cfloat.Dotc(s, s))
		res.Iters = it + 1
		res.ResidualNorm = cfloat.Nrm2(r)
		res.NormalResidual = sqrt(gammaNew)
		res.ResidualHistory = append(res.ResidualHistory, res.ResidualNorm)
		obsIters.Add(1)
		iterSpan.End()
		if gammaNew <= opts.Tol*opts.Tol*gamma0 {
			res.Converged = true
			break
		}
		beta := complex(float32(gammaNew/gamma), 0)
		for i := range p {
			p[i] = s[i] + beta*p[i]
		}
		gamma = gammaNew
	}
	return res, nil
}

func real2(c complex64) float64 { return float64(real(c)) }

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
