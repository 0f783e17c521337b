package lsqr

import (
	"testing"

	"repro/internal/cfloat"
	"repro/internal/dense"
	"repro/internal/testkit"
)

func denseOp(a *dense.Matrix) *MatOperator {
	return &MatOperator{
		M:   a.Rows,
		N:   a.Cols,
		Fwd: func(x, y []complex64) { a.MulVec(x, y) },
		Adj: func(x, y []complex64) { a.MulVecConjTrans(x, y) },
	}
}

func TestSolveIdentity(t *testing.T) {
	n := 10
	a := testkit.Eye(n)
	rng := testkit.NewRNG(1)
	b := dense.Random(rng, n, 1).Data
	res, err := Solve(denseOp(a), b, Options{MaxIters: 5})
	if err != nil {
		t.Fatal(err)
	}
	if testkit.RelErr(res.X, b) > 1e-5 {
		t.Errorf("identity solve error %g", testkit.RelErr(res.X, b))
	}
	if !res.Converged {
		t.Error("identity solve did not converge")
	}
}

func TestSolveWellConditionedSquare(t *testing.T) {
	rng := testkit.NewRNG(2)
	n := 20
	// A = I*4 + small random part: well conditioned
	a := dense.Random(rng, n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+8)
	}
	xTrue := dense.Random(rng, n, 1).Data
	b := make([]complex64, n)
	a.MulVec(xTrue, b)
	res, err := Solve(denseOp(a), b, Options{MaxIters: 200, ATol: 1e-9, BTol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if e := testkit.RelErr(res.X, xTrue); e > 1e-3 {
		t.Errorf("square solve error %g after %d iters", e, res.Iters)
	}
}

func TestSolveOverdeterminedLeastSquares(t *testing.T) {
	// consistent overdetermined system: exact solution must be found
	rng := testkit.NewRNG(3)
	m, n := 40, 12
	a := dense.Random(rng, m, n)
	xTrue := dense.Random(rng, n, 1).Data
	b := make([]complex64, m)
	a.MulVec(xTrue, b)
	res, err := Solve(denseOp(a), b, Options{MaxIters: 100, ATol: 1e-10, BTol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if e := testkit.RelErr(res.X, xTrue); e > 1e-3 {
		t.Errorf("overdetermined solve error %g", e)
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// for inconsistent systems, at the LS solution Aᴴ(b−Ax) ≈ 0
	rng := testkit.NewRNG(4)
	m, n := 30, 8
	a := dense.Random(rng, m, n)
	b := dense.Random(rng, m, 1).Data
	res, err := Solve(denseOp(a), b, Options{MaxIters: 200, ATol: 1e-10, BTol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	r := make([]complex64, m)
	a.MulVec(res.X, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	atr := make([]complex64, n)
	a.MulVecConjTrans(r, atr)
	if cfloat.Nrm2(atr) > 1e-3*cfloat.Nrm2(b) {
		t.Errorf("normal equations residual %g", cfloat.Nrm2(atr))
	}
}

func TestResidualHistoryMonotone(t *testing.T) {
	rng := testkit.NewRNG(5)
	m, n := 50, 20
	a := dense.Random(rng, m, n)
	b := dense.Random(rng, m, 1).Data
	res, err := Solve(denseOp(a), b, Options{MaxIters: 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.ResidualHistory); i++ {
		if res.ResidualHistory[i] > res.ResidualHistory[i-1]*(1+1e-6) {
			t.Fatalf("residual increased at iter %d: %g → %g",
				i, res.ResidualHistory[i-1], res.ResidualHistory[i])
		}
	}
}

func TestZeroRHS(t *testing.T) {
	a := testkit.Eye(5)
	b := make([]complex64, 5)
	res, err := Solve(denseOp(a), b, Options{})
	if err != ErrZeroRHS {
		t.Fatalf("expected ErrZeroRHS, got %v", err)
	}
	if cfloat.Nrm2(res.X) != 0 {
		t.Error("zero RHS should give zero solution")
	}
}

func TestRHSLengthMismatch(t *testing.T) {
	a := testkit.Eye(5)
	if _, err := Solve(denseOp(a), make([]complex64, 3), Options{}); err == nil {
		t.Error("expected length mismatch error")
	}
}

func TestMaxItersRespected(t *testing.T) {
	rng := testkit.NewRNG(7)
	a := dense.Random(rng, 40, 40)
	b := dense.Random(rng, 40, 1).Data
	res, err := Solve(denseOp(a), b, Options{MaxIters: 7, ATol: 1e-16, BTol: 1e-16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters > 7 {
		t.Errorf("ran %d iters, cap was 7", res.Iters)
	}
}

func TestDefaultsApplied(t *testing.T) {
	rng := testkit.NewRNG(8)
	a := dense.Random(rng, 10, 10)
	b := dense.Random(rng, 10, 1).Data
	res, err := Solve(denseOp(a), b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters > 30 {
		t.Error("default MaxIters should be 30")
	}
}

func TestComplexSystemExact(t *testing.T) {
	// small hand-checkable complex system: A = [[2, i],[−i, 2]] (Hermitian
	// positive definite), b = A·[1, 1+i]
	a := dense.New(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1i)
	a.Set(1, 0, -1i)
	a.Set(1, 1, 2)
	xTrue := []complex64{1, 1 + 1i}
	b := make([]complex64, 2)
	a.MulVec(xTrue, b)
	res, err := Solve(denseOp(a), b, Options{MaxIters: 50, ATol: 1e-12, BTol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if e := testkit.RelErr(res.X, xTrue); e > 1e-4 {
		t.Errorf("complex exact solve error %g, x=%v", e, res.X)
	}
}

func TestThirtyIterationsReduceResidualSubstantially(t *testing.T) {
	// the paper's operating point: 30 iterations on an ill-posed but
	// structured system should reduce the residual by orders of magnitude
	rng := testkit.NewRNG(9)
	m, n := 60, 60
	// moderately conditioned: diag decay 1..0.05
	a := dense.Random(rng, m, n)
	for j := 0; j < n; j++ {
		scale := complex(float32(1.0-0.95*float64(j)/float64(n)), 0)
		col := a.Col(j)
		for i := range col {
			col[i] *= scale
		}
	}
	xTrue := dense.Random(rng, n, 1).Data
	b := make([]complex64, m)
	a.MulVec(xTrue, b)
	res, err := Solve(denseOp(a), b, Options{MaxIters: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResidualNorm > 0.05*cfloat.Nrm2(b) {
		t.Errorf("30 iters left residual %g (b norm %g)", res.ResidualNorm, cfloat.Nrm2(b))
	}
}

func BenchmarkSolve30Iters(b *testing.B) {
	rng := testkit.NewRNG(1)
	m, n := 128, 128
	a := dense.Random(rng, m, n)
	rhs := dense.Random(rng, m, 1).Data
	op := denseOp(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Solve(op, rhs, Options{MaxIters: 30, ATol: 1e-16, BTol: 1e-16})
	}
}
