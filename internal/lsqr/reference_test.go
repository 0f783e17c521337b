package lsqr

import (
	"math"
	"testing"

	"repro/internal/cfloat"
)

// solveUnfused is the reference the fused loop must reproduce: the
// bidiagonalization with its normalization deferred by one step (w =
// A v − α u and z = Aᴴ w, then β u = w and α v = z/β − β v), written with
// none of SolveFallible's vector fusions — every scalar enters as
// complex(float32(s), 0), the full complex product gc computes in
// float64 and rounds once, and every norm is a second pass (cfloat.Nrm2,
// Dotc) over the vector the update just wrote. It returns the result and
// the state after ckptAt completed iterations.
func solveUnfused(a Operator, b []complex64, opts Options, ckptAt int) (*Result, *Checkpoint) {
	m, n := a.Rows(), a.Cols()
	scale := func(x []complex64, s float64) {
		for i := range x {
			x[i] *= complex(float32(s), 0)
		}
	}
	x := make([]complex64, n)
	u := append([]complex64(nil), b...)
	beta := cfloat.Nrm2(u)
	scale(u, 1/beta)
	v := make([]complex64, n)
	a.ApplyAdjoint(u, v)
	alpha := cfloat.Nrm2(v)
	if alpha > 0 {
		scale(v, 1/alpha)
	}
	w := append([]complex64(nil), v...)
	phiBar, rhoBar, bnorm := beta, alpha, beta
	var anorm float64
	wv, z := make([]complex64, m), make([]complex64, n)
	res := &Result{X: x}
	var ckpt *Checkpoint
	for it := 0; it < opts.MaxIters; it++ {
		a.Apply(v, wv)
		for i := range wv {
			wv[i] -= complex(float32(alpha), 0) * u[i]
		}
		a.ApplyAdjoint(wv, z)
		beta := cfloat.Nrm2(wv)
		copy(u, wv)
		inv := 1.0
		if beta > 0 {
			scale(u, 1/beta)
			inv = 1 / beta
		}
		anorm = math.Sqrt(anorm*anorm + alpha*alpha + beta*beta)
		for i := range v {
			v[i] = complex(float32(inv), 0)*z[i] - complex(float32(beta), 0)*v[i]
		}
		alpha = cfloat.Nrm2(v)
		if alpha > 0 {
			scale(v, 1/alpha)
		}
		rho := math.Hypot(rhoBar, beta)
		cs := rhoBar / rho
		sn := beta / rho
		theta := sn * alpha
		rhoBar = -cs * alpha
		phi := cs * phiBar
		phiBar = sn * phiBar
		t1 := phi / rho
		t2 := -theta / rho
		for i := 0; i < n; i++ {
			x[i] += complex(float32(t1), 0) * w[i]
			w[i] = v[i] + complex(float32(t2), 0)*w[i]
		}
		res.Iters = it + 1
		rnorm := phiBar
		res.ResidualNorm = rnorm
		res.ResidualHistory = append(res.ResidualHistory, rnorm)
		if rnorm <= opts.BTol*bnorm+opts.ATol*anorm*cfloat.Nrm2(x) {
			res.Converged = true
			break
		}
		arnorm := alpha * math.Abs(cs) * rnorm
		if anorm > 0 && rnorm > 0 && arnorm/(anorm*rnorm) <= opts.ATol {
			res.Converged = true
			break
		}
		if it+1 == ckptAt {
			ckpt = &Checkpoint{
				Iter:  it + 1,
				X:     append([]complex64(nil), x...),
				U:     append([]complex64(nil), u...),
				V:     append([]complex64(nil), v...),
				W:     append([]complex64(nil), w...),
				Alpha: alpha, PhiBar: phiBar, RhoBar: rhoBar,
				Anorm: anorm, Bnorm: bnorm,
			}
		}
	}
	return res, ckpt
}

// TestFusedLoopMatchesUnfusedReference holds the fused real-scalar loop
// to the unfused one element for element: the solution, the residual
// history and a mid-solve checkpoint (all four vectors and every scalar
// of the recurrence). Equality is ==, under which the one thing a
// real-scalar product may change — the sign of an exact zero — does not
// count; a different rounding anywhere would.
func TestFusedLoopMatchesUnfusedReference(t *testing.T) {
	for ci, tc := range []struct {
		seed   int64
		m, n   int
		opts   Options
		ckptAt int
	}{
		{70, 20, 12, Options{MaxIters: 12, ATol: 1e-30, BTol: 1e-30}, 5},
		// consistent system (below): stops early, on the fused ‖x‖ alone
		{72, 40, 10, Options{MaxIters: 30, ATol: 1e-3, BTol: 1e-30}, 2},
	} {
		op, b := randProblem(tc.seed, tc.m, tc.n)
		if ci == 1 {
			op.Apply(append([]complex64(nil), b[:tc.n]...), b)
		}
		ckptAt := tc.ckptAt
		want, wantCk := solveUnfused(op, b, tc.opts, ckptAt)
		var gotCk *Checkpoint
		got, _, err := SolveFallible(Fallible{Op: op}, b, tc.opts, CheckpointConfig{
			Interval: ckptAt,
			OnCheckpoint: func(c *Checkpoint) {
				if c.Iter == ckptAt {
					gotCk = c
				}
			},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Iters != want.Iters || got.Converged != want.Converged {
			t.Fatalf("case %d: %d iterations (converged %v), reference %d (%v)",
				ci, got.Iters, got.Converged, want.Iters, want.Converged)
		}
		bitIdentical(t, "X", got.X, want.X)
		for i, r := range want.ResidualHistory {
			if got.ResidualHistory[i] != r {
				t.Fatalf("case %d: residual %d is %g, reference %g", ci, i, got.ResidualHistory[i], r)
			}
		}
		if gotCk == nil || wantCk == nil {
			t.Fatalf("case %d: no checkpoint at iteration %d of %d", ci, ckptAt, got.Iters)
		}
		bitIdentical(t, "checkpoint X", gotCk.X, wantCk.X)
		bitIdentical(t, "checkpoint U", gotCk.U, wantCk.U)
		bitIdentical(t, "checkpoint V", gotCk.V, wantCk.V)
		bitIdentical(t, "checkpoint W", gotCk.W, wantCk.W)
		gs := [5]float64{gotCk.Alpha, gotCk.PhiBar, gotCk.RhoBar, gotCk.Anorm, gotCk.Bnorm}
		ws := [5]float64{wantCk.Alpha, wantCk.PhiBar, wantCk.RhoBar, wantCk.Anorm, wantCk.Bnorm}
		if gs != ws {
			t.Errorf("case %d: checkpoint scalars %v, reference %v", ci, gs, ws)
		}
	}
}
