package cgls

import (
	"math"
	"testing"

	"repro/internal/cfloat"
	"repro/internal/dense"
	"repro/internal/lsqr"
	"repro/internal/testkit"
)

func denseOp(a *dense.Matrix) *lsqr.MatOperator {
	return &lsqr.MatOperator{
		M:   a.Rows,
		N:   a.Cols,
		Fwd: func(x, y []complex64) { a.MulVec(x, y) },
		Adj: func(x, y []complex64) { a.MulVecConjTrans(x, y) },
	}
}

func TestSolveConsistentSystem(t *testing.T) {
	rng := testkit.NewRNG(1)
	m, n := 40, 12
	a := dense.Random(rng, m, n)
	xTrue := dense.Random(rng, n, 1).Data
	b := make([]complex64, m)
	a.MulVec(xTrue, b)
	res, err := Solve(denseOp(a), b, Options{MaxIters: 100, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if e := testkit.RelErr(res.X, xTrue); e > 1e-3 {
		t.Errorf("solve error %g after %d iters", e, res.Iters)
	}
	if !res.Converged {
		t.Error("did not converge on a consistent system")
	}
}

func TestAgreesWithLSQR(t *testing.T) {
	// CGLS and LSQR build the same Krylov iterates: after the same number
	// of iterations on a well-conditioned system the solutions must agree
	rng := testkit.NewRNG(2)
	m, n := 30, 30
	a := dense.Random(rng, m, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+6)
	}
	b := dense.Random(rng, m, 1).Data
	iters := 12
	rc, err := Solve(denseOp(a), b, Options{MaxIters: iters, Tol: 1e-16})
	if err != nil {
		t.Fatal(err)
	}
	rl, err := lsqr.Solve(denseOp(a), b, lsqr.Options{MaxIters: iters, ATol: 1e-16, BTol: 1e-16})
	if err != nil {
		t.Fatal(err)
	}
	if e := testkit.RelErr(rc.X, rl.X); e > 1e-2 {
		t.Errorf("CGLS and LSQR diverge: %g", e)
	}
}

func TestResidualMonotone(t *testing.T) {
	rng := testkit.NewRNG(3)
	a := dense.Random(rng, 50, 20)
	b := dense.Random(rng, 50, 1).Data
	res, err := Solve(denseOp(a), b, Options{MaxIters: 25})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.ResidualHistory); i++ {
		if res.ResidualHistory[i] > res.ResidualHistory[i-1]*(1+1e-5) {
			t.Fatalf("residual increased at iter %d", i)
		}
	}
}

func TestZeroRHS(t *testing.T) {
	a := testkit.Eye(5)
	res, err := Solve(denseOp(a), make([]complex64, 5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || cfloat.Nrm2(res.X) != 0 {
		t.Error("zero rhs should converge to zero immediately")
	}
}

func TestRHSMismatch(t *testing.T) {
	a := testkit.Eye(5)
	if _, err := Solve(denseOp(a), make([]complex64, 3), Options{}); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestNormalResidualReported(t *testing.T) {
	rng := testkit.NewRNG(5)
	a := dense.Random(rng, 20, 8)
	b := dense.Random(rng, 20, 1).Data
	// a tolerance fp32 products can reach: below their rounding floor the
	// stopping test never fires and the iterates random-walk away from the
	// solution CG found after its 8 steps
	res, err := Solve(denseOp(a), b, Options{MaxIters: 60, Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("not converged after %d iterations", res.Iters)
	}
	// at the LS solution the normal-equations residual is near zero
	if math.IsNaN(res.NormalResidual) || res.NormalResidual > 1e-3*cfloat.Nrm2(b) {
		t.Errorf("normal residual %g", res.NormalResidual)
	}
}

func BenchmarkSolve30Iters(b *testing.B) {
	rng := testkit.NewRNG(1)
	a := dense.Random(rng, 128, 128)
	rhs := dense.Random(rng, 128, 1).Data
	op := denseOp(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Solve(op, rhs, Options{MaxIters: 30, Tol: 1e-16})
	}
}
