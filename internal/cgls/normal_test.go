package cgls

import (
	"testing"

	"repro/internal/dense"
	"repro/internal/lsqr"
	"repro/internal/mdc"
	"repro/internal/testkit"
	"repro/internal/tlr"
)

func TestSolveNormalConsistentSystem(t *testing.T) {
	rng := testkit.NewRNG(11)
	m, n := 40, 12
	a := dense.Random(rng, m, n)
	xTrue := dense.Random(rng, n, 1).Data
	b := make([]complex64, m)
	a.MulVec(xTrue, b)
	res, err := SolveNormal(denseOp(a), b, Options{MaxIters: 100, Tol: 1e-10})
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

func TestSolveNormalAgreesWithCGLS(t *testing.T) {
	// CG on the normal equations and CGLS generate the same Krylov
	// iterates in exact arithmetic; on a well-conditioned system the
	// float32 trajectories stay close.
	rng := testkit.NewRNG(12)
	n := 30
	a := dense.Random(rng, n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+6)
	}
	b := dense.Random(rng, n, 1).Data
	for _, damp := range []float64{0, 0.3} {
		rn, err := SolveNormal(denseOp(a), b, Options{MaxIters: 12, Tol: 1e-16, Damp: damp})
		if err != nil {
			t.Fatal(err)
		}
		rc, err := Solve(denseOp(a), b, Options{MaxIters: 12, Tol: 1e-16, Damp: damp})
		if err != nil {
			t.Fatal(err)
		}
		if e := testkit.RelErr(rn.X, rc.X); e > 1e-2 {
			t.Errorf("damp %g: SolveNormal vs Solve solutions differ by %g", damp, e)
		}
	}
}

func TestSolveNormalZeroRHS(t *testing.T) {
	rng := testkit.NewRNG(13)
	a := dense.Random(rng, 8, 5)
	res, err := SolveNormal(denseOp(a), make([]complex64, 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iters != 0 {
		t.Errorf("zero rhs: converged=%v iters=%d, want immediate x=0", res.Converged, res.Iters)
	}
	for i, v := range res.X {
		if v != 0 {
			t.Fatalf("zero rhs: x[%d] = %v", i, v)
		}
	}
}

func TestSolveNormalRHSLengthMismatch(t *testing.T) {
	rng := testkit.NewRNG(14)
	a := dense.Random(rng, 8, 5)
	if _, err := SolveNormal(denseOp(a), make([]complex64, 7), Options{}); err == nil {
		t.Fatal("short rhs accepted")
	}
}

// TestSolveNormalFusedTLROperator drives the whole fused stack: the MDC
// frequency operator over a TLR kernel implements lsqr.StepOperator, so
// each SolveNormal iteration is one tlr.Matrix.MulVecStep sweep at α = 0.
// The solution must match standard CGLS on the same operator, and equal
// SolveNormal's own composed route.
func TestSolveNormalFusedTLROperator(t *testing.T) {
	rng := testkit.NewRNG(15)
	n := 36
	a := testkit.DecayMat(rng, n, n, 0.5)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+4)
	}
	tm, err := tlr.Compress(a, tlr.Options{NB: 12, Tol: 1e-6, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	op := &mdc.FreqOperator{K: &mdc.TLRKernel{Mats: []*tlr.Matrix{tm}}, Workers: 1}
	if _, ok := interface{}(op).(lsqr.StepOperator); !ok {
		t.Fatal("FreqOperator over a TLR kernel must implement lsqr.StepOperator")
	}
	b := dense.Random(rng, n, 1).Data
	rn, err := SolveNormal(op, b, Options{MaxIters: 15, Tol: 1e-16})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := Solve(op, b, Options{MaxIters: 15, Tol: 1e-16})
	if err != nil {
		t.Fatal(err)
	}
	if e := testkit.RelErr(rn.X, rc.X); e > 1e-2 {
		t.Errorf("fused SolveNormal vs CGLS solutions differ by %g", e)
	}
	composed, err := SolveNormal(struct{ lsqr.Operator }{op}, b, Options{MaxIters: 15, Tol: 1e-16})
	if err != nil {
		t.Fatal(err)
	}
	if d := testkit.MaxULPDist(rn.X, composed.X); d != 0 {
		t.Errorf("fused SolveNormal %d ULPs from its composed route", d)
	}
}
