package lsqr

import (
	"testing"

	"repro/internal/cfloat"
	"repro/internal/dense"
	"repro/internal/testkit"
)

// TestSolveEdgeCases drives LSQR through the boundary inputs a solver has
// to get right before its convergence behaviour matters.
func TestSolveEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		setup   func() (Operator, []complex64)
		opts    Options
		wantErr error
		check   func(t *testing.T, res *Result)
	}{
		{
			name: "1x1-real",
			setup: func() (Operator, []complex64) {
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
			setup: func() (Operator, []complex64) {
				a := dense.New(1, 1)
				a.Set(0, 0, 1+1i)
				// (1+i)·x = 2i ⇒ x = 1+i
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
			name: "zero-rhs",
			setup: func() (Operator, []complex64) {
				return denseOp(testkit.Eye(4)), make([]complex64, 4)
			},
			wantErr: ErrZeroRHS,
			check: func(t *testing.T, res *Result) {
				if cfloat.Nrm2(res.X) != 0 {
					t.Errorf("zero RHS must give the zero solution, got %v", res.X)
				}
			},
		},
		{
			name: "zero-maxiters-uses-default",
			setup: func() (Operator, []complex64) {
				a := dense.Random(testkit.NewRNG(81), 12, 12)
				return denseOp(a), testkit.Vec(testkit.NewRNG(82), 12)
			},
			opts: Options{ATol: 1e-16, BTol: 1e-16}, // never satisfied
			check: func(t *testing.T, res *Result) {
				if res.Iters != 30 {
					t.Errorf("MaxIters=0 ran %d iters, default is 30", res.Iters)
				}
			},
		},
		{
			name: "already-converged-identity",
			setup: func() (Operator, []complex64) {
				return denseOp(testkit.Eye(6)), testkit.Vec(testkit.NewRNG(83), 6)
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
			setup: func() (Operator, []complex64) {
				a := dense.Random(testkit.NewRNG(84), 9, 1)
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
			if err != tc.wantErr {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if tc.check != nil {
				tc.check(t, res)
			}
		})
	}
}

// TestUpdateVAtBreakdown is the deferred step's one division: at
// breakdown the step's w, and so z = Aᴴ w, vanish exactly, and the next
// v must be 0 with alpha 0 — z is never divided by beta = 0.
func TestUpdateVAtBreakdown(t *testing.T) {
	z := make([]complex64, 5)
	v := []complex64{1, 2i, -3, 4 + 1i, 0.5}
	if alpha := updateV(z, 0, v); alpha != 0 {
		t.Errorf("alpha = %g at breakdown, want 0", alpha)
	}
	for i, zi := range z {
		if zi != 0 {
			t.Errorf("next v[%d] = %v at breakdown, want 0", i, zi)
		}
	}
}
