package cgls

import (
	"testing"

	"repro/internal/cfloat"
	"repro/internal/dense"
	"repro/internal/lsqr"
	"repro/internal/testkit"
)

// TestSolveEdgeCases drives CGLS through the same boundary inputs as the
// LSQR edge table, so the two solvers keep identical edge semantics.
func TestSolveEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		setup func() (lsqr.Operator, []complex64)
		opts  Options
		check func(t *testing.T, res *Result)
	}{
		{
			name: "1x1-real",
			setup: func() (lsqr.Operator, []complex64) {
				a := dense.New(1, 1)
				a.Set(0, 0, 3)
				return denseOp(a), []complex64{6}
			},
			opts: Options{MaxIters: 10},
			check: func(t *testing.T, res *Result) {
				if e := testkit.RelErr(res.X, []complex64{2}); e > 1e-6 {
					t.Errorf("x = %v, want 2 (relErr %g)", res.X, e)
				}
			},
		},
		{
			name: "1x1-complex",
			setup: func() (lsqr.Operator, []complex64) {
				a := dense.New(1, 1)
				a.Set(0, 0, 1+1i)
				return denseOp(a), []complex64{2i}
			},
			opts: Options{MaxIters: 10},
			check: func(t *testing.T, res *Result) {
				if e := testkit.RelErr(res.X, []complex64{1 + 1i}); e > 1e-6 {
					t.Errorf("x = %v, want 1+i (relErr %g)", res.X, e)
				}
			},
		},
		{
			name: "zero-rhs-converges-to-zero",
			setup: func() (lsqr.Operator, []complex64) {
				return denseOp(testkit.Eye(4)), make([]complex64, 4)
			},
			check: func(t *testing.T, res *Result) {
				if !res.Converged || cfloat.Nrm2(res.X) != 0 {
					t.Errorf("zero RHS: converged=%v x=%v", res.Converged, res.X)
				}
			},
		},
		{
			name: "zero-maxiters-uses-default",
			setup: func() (lsqr.Operator, []complex64) {
				a := dense.Random(testkit.NewRNG(91), 12, 12)
				return denseOp(a), testkit.Vec(testkit.NewRNG(92), 12)
			},
			opts: Options{Tol: 1e-16}, // never satisfied
			check: func(t *testing.T, res *Result) {
				if res.Iters != 30 {
					t.Errorf("MaxIters=0 ran %d iters, default is 30", res.Iters)
				}
			},
		},
		{
			name: "already-converged-identity",
			setup: func() (lsqr.Operator, []complex64) {
				return denseOp(testkit.Eye(6)), testkit.Vec(testkit.NewRNG(93), 6)
			},
			opts: Options{MaxIters: 50},
			check: func(t *testing.T, res *Result) {
				if !res.Converged {
					t.Error("identity system did not report convergence")
				}
				if res.Iters > 2 {
					t.Errorf("identity system took %d iters", res.Iters)
				}
			},
		},
		{
			name: "tall-single-column",
			setup: func() (lsqr.Operator, []complex64) {
				a := dense.Random(testkit.NewRNG(94), 9, 1)
				b := make([]complex64, 9)
				a.MulVec([]complex64{2 - 1i}, b)
				return denseOp(a), b
			},
			opts: Options{MaxIters: 20},
			check: func(t *testing.T, res *Result) {
				if e := testkit.RelErr(res.X, []complex64{2 - 1i}); e > 1e-4 {
					t.Errorf("single-column solve error %g", e)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			op, b := tc.setup()
			res, err := Solve(op, b, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.check != nil {
				tc.check(t, res)
			}
		})
	}
}
