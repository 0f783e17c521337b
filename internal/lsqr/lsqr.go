// Package lsqr implements the LSQR algorithm of Paige and Saunders ([34]
// in the paper) for complex linear operators: it solves min ‖A x − b‖₂ via
// Golub–Kahan bidiagonalization, touching A only through forward and
// adjoint products. The paper solves the MDD inverse problem with 30 LSQR
// iterations (§6.2); the MDC operator built on TLR-MVM plugs in here.
package lsqr

import (
	"errors"

	"repro/internal/cfloat"
	"repro/internal/obs"
)

// Solver metrics: whole-solve and per-iteration timers (the iteration
// timer's max is the worst Krylov step) plus a total iteration counter.
var (
	obsSolve = obs.NewTimer("lsqr.solve")
	obsIter  = obs.NewTimer("lsqr.iter")
	obsIters = obs.NewCounter("lsqr.iters")
)

// Operator is a complex linear map A: ℂⁿ → ℂᵐ accessed matrix-free.
type Operator interface {
	// Rows and Cols give the operator shape (m and n).
	Rows() int
	Cols() int
	// Apply computes y = A x (len(x) = Cols, len(y) = Rows).
	Apply(x, y []complex64)
	// ApplyAdjoint computes y = Aᴴ x (len(x) = Rows, len(y) = Cols).
	ApplyAdjoint(x, y []complex64)
}

// StepOperator is an Operator that can run LSQR's bidiagonalization
// step in one call: w = A x − α u, then z = Aᴴ w. SolveFallible
// bidiagonalizes with the normalization deferred by one step so that
// the two products of an iteration are exactly these; for the TLR-backed
// MDC operator the call is one sweep over the tiles instead of two.
// The α = 0 case is the normal product AᴴA x. The solver sees the
// capability through Fallible{Op}, so an operator that can fail runs
// the composed Apply → subtract → ApplyAdjoint, which gives the same
// bits.
type StepOperator interface {
	Operator
	// ApplyStep computes w = A x − alpha·u and z = Aᴴ w (len(x) =
	// len(z) = Cols, len(u) = len(w) = Rows), with the float32
	// operations of Apply, cfloat.ScaleSub(1, w, alpha, u) and
	// ApplyAdjoint. u may be nil when alpha is 0.
	ApplyStep(x []complex64, alpha float32, u, w, z []complex64)
}

// Options controls the iteration.
type Options struct {
	// MaxIters bounds the iteration count (default 30, matching the
	// paper's MDD runs).
	MaxIters int
	// ATol stops when the estimated relative residual ‖Aᴴr‖/(‖A‖‖r‖)
	// falls below it (default 1e-8).
	ATol float64
	// BTol stops when ‖r‖/‖b‖ falls below it (default 1e-8).
	BTol float64
}

// Result reports the solve outcome.
type Result struct {
	// X is the solution estimate (length Cols).
	X []complex64
	// Iters is the number of iterations performed.
	Iters int
	// ResidualNorm is the final ‖b − A x‖ estimate.
	ResidualNorm float64
	// ResidualHistory holds ‖r‖ after each iteration.
	ResidualHistory []float64
	// Converged reports whether a stopping tolerance was met before
	// MaxIters.
	Converged bool
}

// ErrZeroRHS is returned when b is identically zero (the solution is x=0).
var ErrZeroRHS = errors.New("lsqr: right-hand side is zero")

// Solve runs LSQR on A x ≈ b. It is the infallible front door over
// SolveFallible: same iteration, no checkpointing, operator faults
// impossible by construction.
func Solve(a Operator, b []complex64, opts Options) (*Result, error) {
	res, _, err := SolveFallible(Fallible{Op: a}, b, opts, CheckpointConfig{}, nil)
	return res, err
}

func rescale(x []complex64, s float64) {
	cfloat.Scal(complex(float32(s), 0), x)
}

// MatOperator adapts explicit forward/adjoint closures to the Operator
// interface, convenient for tests and for wrapping dense or TLR matrices.
type MatOperator struct {
	M, N int
	Fwd  func(x, y []complex64)
	Adj  func(x, y []complex64)
}

// Rows implements Operator.
func (o *MatOperator) Rows() int { return o.M }

// Cols implements Operator.
func (o *MatOperator) Cols() int { return o.N }

// Apply implements Operator.
func (o *MatOperator) Apply(x, y []complex64) { o.Fwd(x, y) }

// ApplyAdjoint implements Operator.
func (o *MatOperator) ApplyAdjoint(x, y []complex64) { o.Adj(x, y) }
