// Fault-tolerant LSQR: the same Paige–Saunders iteration as Solve, but
// the operator products may fail (a dead shard, an exhausted retry
// budget) and the solver state is periodically checkpointed so the MDD
// driver resumes a faulted solve from the last snapshot instead of
// restarting the inversion. A resumed solve replays the exact float
// state of the snapshot, so its trajectory is bitwise identical to an
// uninterrupted run.
package lsqr

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cfloat"
)

// FallibleOperator is Operator with error propagation: the MVM products
// report faults instead of panicking. mdc.ShardedFreqOperator and the
// fault-injection wrappers implement it.
type FallibleOperator interface {
	Rows() int
	Cols() int
	// Apply computes y = A x or reports why it could not.
	Apply(x, y []complex64) error
	// ApplyAdjoint computes y = Aᴴ x likewise.
	ApplyAdjoint(x, y []complex64) error
}

// Fallible adapts an infallible Operator to FallibleOperator.
type Fallible struct{ Op Operator }

// Rows implements FallibleOperator.
func (f Fallible) Rows() int { return f.Op.Rows() }

// Cols implements FallibleOperator.
func (f Fallible) Cols() int { return f.Op.Cols() }

// Apply implements FallibleOperator.
func (f Fallible) Apply(x, y []complex64) error { f.Op.Apply(x, y); return nil }

// ApplyAdjoint implements FallibleOperator.
func (f Fallible) ApplyAdjoint(x, y []complex64) error { f.Op.ApplyAdjoint(x, y); return nil }

// Checkpoint is the complete between-iterations state of an LSQR solve:
// restoring it and continuing reproduces the uninterrupted trajectory
// bit for bit (the loop body reads exactly these fields — the previous
// iteration's beta is recomputed from u, so it is not stored).
type Checkpoint struct {
	// Iter is the number of completed iterations.
	Iter int
	// X, U, V, W are the solution estimate and the bidiagonalization /
	// search-direction vectors.
	X, U, V, W []complex64
	// Alpha, PhiBar, RhoBar, Anorm, Bnorm are the scalar recurrence
	// state.
	Alpha, PhiBar, RhoBar, Anorm, Bnorm float64
	// History is the residual norm after each completed iteration.
	History []float64
}

// CheckpointConfig controls periodic snapshotting inside SolveFallible.
type CheckpointConfig struct {
	// Interval snapshots the solver state every Interval completed
	// iterations; 0 disables checkpointing.
	Interval int
	// OnCheckpoint, when non-nil, observes each snapshot as it is taken
	// (mddserve streams the per-iteration residual from it).
	OnCheckpoint func(*Checkpoint)
}

// SolveFallible runs LSQR on A x ≈ b through a fallible operator,
// optionally resuming from a checkpoint. On an operator fault it
// returns the fault and the most recent checkpoint (which may be nil if
// none was taken); the caller restores capacity and calls back with
// resume set to continue the solve. The returned checkpoint on success
// is the last one taken, for callers that persist solver state.
func SolveFallible(a FallibleOperator, b []complex64, opts Options, cfg CheckpointConfig, resume *Checkpoint) (*Result, *Checkpoint, error) {
	defer obsSolve.Start().End()
	m, n := a.Rows(), a.Cols()
	if len(b) != m {
		return nil, nil, errors.New("lsqr: rhs length mismatch")
	}
	if opts.MaxIters <= 0 {
		opts.MaxIters = 30
	}
	if opts.ATol == 0 {
		opts.ATol = 1e-8
	}
	if opts.BTol == 0 {
		opts.BTol = 1e-8
	}

	var (
		x, u, v, w                          []complex64
		alpha, phiBar, rhoBar, anorm, bnorm float64
		start                               int
		last                                *Checkpoint
	)
	res := &Result{}
	if resume != nil {
		if len(resume.X) != n || len(resume.U) != m || len(resume.V) != n || len(resume.W) != n {
			return nil, nil, fmt.Errorf("lsqr: checkpoint shape (%d,%d,%d,%d) does not match operator (%d,%d)",
				len(resume.X), len(resume.U), len(resume.V), len(resume.W), m, n)
		}
		x = append([]complex64(nil), resume.X...)
		u = append([]complex64(nil), resume.U...)
		v = append([]complex64(nil), resume.V...)
		w = append([]complex64(nil), resume.W...)
		alpha, phiBar, rhoBar = resume.Alpha, resume.PhiBar, resume.RhoBar
		anorm, bnorm = resume.Anorm, resume.Bnorm
		start = resume.Iter
		last = resume
		res.Iters = resume.Iter
		res.ResidualHistory = append([]float64(nil), resume.History...)
		if len(resume.History) > 0 {
			res.ResidualNorm = resume.History[len(resume.History)-1]
		}
	} else {
		x = make([]complex64, n)
		u = make([]complex64, m)
		copy(u, b)
		beta := cfloat.Nrm2(u)
		if beta == 0 {
			return &Result{X: x, Converged: true}, nil, ErrZeroRHS
		}
		rescale(u, 1/beta)

		v = make([]complex64, n)
		if err := a.ApplyAdjoint(u, v); err != nil {
			return nil, nil, fmt.Errorf("lsqr: initial adjoint product: %w", err)
		}
		alpha = cfloat.Nrm2(v)
		if alpha > 0 {
			rescale(v, 1/alpha)
		}
		w = make([]complex64, n)
		copy(w, v)

		phiBar = beta
		rhoBar = alpha
		bnorm = beta
	}
	res.X = x
	tmpM := make([]complex64, m)
	tmpN := make([]complex64, n)
	// the one-call step is taken only from an infallible operator behind
	// Fallible, so every fault keeps its seam
	var stepper StepOperator
	if f, ok := a.(Fallible); ok {
		stepper, _ = f.Op.(StepOperator)
	}

	for it := start; it < opts.MaxIters; it++ {
		iterSpan := obsIter.Start()
		// bidiagonalization with the normalization deferred by one step,
		// so both products run on vectors known before either starts:
		// w = A v − alpha*u and z = Aᴴ w; then beta*u = w and
		// alpha*v = Aᴴ u − beta*v = z/beta − beta*v
		beta, err := step(a, stepper, v, float32(alpha), u, tmpM, tmpN)
		if err != nil {
			return nil, last, fmt.Errorf("lsqr: iteration %d %w", it, err)
		}
		u, tmpM = tmpM, u
		if beta > 0 {
			rescale(u, 1/beta)
		}
		anorm = math.Sqrt(anorm*anorm + alpha*alpha + beta*beta)

		alpha = updateV(tmpN, beta, v)
		v, tmpN = tmpN, v
		if alpha > 0 {
			rescale(v, 1/alpha)
		}

		// Givens rotation to eliminate the subdiagonal beta
		rho := math.Hypot(rhoBar, beta)
		cs := rhoBar / rho
		sn := beta / rho
		theta := sn * alpha
		rhoBar = -cs * alpha
		phi := cs * phiBar
		phiBar = sn * phiBar

		// update x and w
		t1 := phi / rho
		t2 := -theta / rho
		xx := updateXW(x, w, v, float32(t1), float32(t2))

		// phiBar = ‖r‖: it starts at ‖b‖ and each rotation scales it by
		// sn ≥ 0
		rnorm := phiBar
		res.Iters = it + 1
		res.ResidualNorm = rnorm
		res.ResidualHistory = append(res.ResidualHistory, rnorm)
		obsIters.Add(1)
		iterSpan.End()

		// stopping tests (Paige–Saunders criteria 1 and 2)
		if rnorm <= opts.BTol*bnorm+opts.ATol*anorm*math.Sqrt(xx) {
			res.Converged = true
			break
		}
		arnorm := alpha * math.Abs(cs) * rnorm
		if anorm > 0 && rnorm > 0 && arnorm/(anorm*rnorm) <= opts.ATol {
			res.Converged = true
			break
		}

		if cfg.Interval > 0 && (it+1)%cfg.Interval == 0 {
			last = &Checkpoint{
				Iter:  it + 1,
				X:     append([]complex64(nil), x...),
				U:     append([]complex64(nil), u...),
				V:     append([]complex64(nil), v...),
				W:     append([]complex64(nil), w...),
				Alpha: alpha, PhiBar: phiBar, RhoBar: rhoBar,
				Anorm: anorm, Bnorm: bnorm,
				History: append([]float64(nil), res.ResidualHistory...),
			}
			if cfg.OnCheckpoint != nil {
				cfg.OnCheckpoint(last)
			}
		}
	}
	return res, last, nil
}

// step computes w = A v − alpha·u and z = Aᴴ w, in one call when s is
// non-nil and as Apply, cfloat.ScaleSub and ApplyAdjoint otherwise —
// the same float32 operations in the same order — and returns ‖w‖₂.
func step(a FallibleOperator, s StepOperator, v []complex64, alpha float32, u, w, z []complex64) (float64, error) {
	if s != nil {
		s.ApplyStep(v, alpha, u, w, z)
		return cfloat.Nrm2(w), nil
	}
	if err := a.Apply(v, w); err != nil {
		return 0, fmt.Errorf("forward product: %w", err)
	}
	beta := cfloat.ScaleSub(1, w, alpha, u)
	if err := a.ApplyAdjoint(w, z); err != nil {
		return 0, fmt.Errorf("adjoint product: %w", err)
	}
	return beta, nil
}

// updateV overwrites z, which holds Aᴴ w for the step's w = beta·u,
// with alpha·v = z/beta − beta·v and returns alpha. At breakdown
// (beta = 0, hence w = z = 0) u stays w, so z is Aᴴ u already and is not
// divided.
func updateV(z []complex64, beta float64, v []complex64) float64 {
	inv := float32(1)
	if beta > 0 {
		inv = float32(1 / beta)
	}
	return cfloat.ScaleSub(inv, z, float32(beta), v)
}

// The solver's vector work runs in the operator's own precision: a real
// scalar times a complex64 is two float32 multiplies (cfloat.ScaleSub,
// updateXW), and each update returns the float64 sum of squares of the
// vector it steps (ScaleSub's result, updateXW's x), accumulated in index
// order exactly as cfloat.Nrm2 and Dotc would on a second pass over it. The float32 conversions
// mark the roundings, so an FMA-fusing target cannot merge a product
// into the add beside it.

// updateXW steps the solution and the search direction, x += t1·w then
// w = v + t2·w, and returns ‖x‖² for the stopping test.
func updateXW(x, w, v []complex64, t1, t2 float32) (xx float64) {
	x, v = x[:len(w)], v[:len(w)]
	for i, wi := range w {
		xr := real(x[i]) + float32(t1*real(wi))
		xi := imag(x[i]) + float32(t1*imag(wi))
		x[i] = complex(xr, xi)
		wr := real(v[i]) + float32(t2*real(wi))
		wim := imag(v[i]) + float32(t2*imag(wi))
		w[i] = complex(wr, wim)
		xx += float64(xr)*float64(xr) + float64(xi)*float64(xi)
	}
	return xx
}
