package lsqr

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/dense"
)

// flakyOp wraps an operator and fails the nth product (1-based, forward
// and adjoint counted together).
type flakyOp struct {
	op     Operator
	failAt int
	count  int
}

func (f *flakyOp) Rows() int { return f.op.Rows() }
func (f *flakyOp) Cols() int { return f.op.Cols() }
func (f *flakyOp) Apply(x, y []complex64) error {
	f.count++
	if f.count == f.failAt {
		return errors.New("injected product fault")
	}
	f.op.Apply(x, y)
	return nil
}
func (f *flakyOp) ApplyAdjoint(x, y []complex64) error {
	f.count++
	if f.count == f.failAt {
		return errors.New("injected product fault")
	}
	f.op.ApplyAdjoint(x, y)
	return nil
}

func randProblem(seed int64, m, n int) (*MatOperator, []complex64) {
	rng := rand.New(rand.NewSource(seed))
	a := dense.Random(rng, m, n)
	b := dense.Random(rng, m, 1).Data
	return denseOp(a), b
}

func bitIdentical(t *testing.T, label string, got, want []complex64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d differs: %v vs %v (must be bit-identical)", label, i, got[i], want[i])
		}
	}
}

// TestResumeBitIdentical checkpoints mid-solve, resumes from the
// snapshot, and requires the resumed trajectory to land exactly on the
// uninterrupted one.
func TestResumeBitIdentical(t *testing.T) {
	op, b := randProblem(51, 20, 12)
	opts := Options{MaxIters: 12}

	full, err := Solve(op, b, opts)
	if err != nil {
		t.Fatal(err)
	}

	// the same solve stopped at iteration 5 leaves its snapshot there
	_, resume, err := SolveFallible(Fallible{Op: op}, b, Options{MaxIters: 5}, CheckpointConfig{Interval: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resume == nil || resume.Iter != 5 {
		t.Fatalf("checkpoint %+v, want one at iteration 5", resume)
	}
	res, _, err := SolveFallible(Fallible{Op: op}, b, opts, CheckpointConfig{}, resume)
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, "resumed X", res.X, full.X)
	if res.Iters != full.Iters {
		t.Errorf("resumed iters %d != full %d", res.Iters, full.Iters)
	}
	if len(res.ResidualHistory) != len(full.ResidualHistory) {
		t.Fatalf("history length %d != %d", len(res.ResidualHistory), len(full.ResidualHistory))
	}
	for i := range full.ResidualHistory {
		if res.ResidualHistory[i] != full.ResidualHistory[i] {
			t.Fatalf("history %d differs: %g vs %g", i, res.ResidualHistory[i], full.ResidualHistory[i])
		}
	}
}

func TestFaultReturnsLatestCheckpoint(t *testing.T) {
	op, b := randProblem(52, 16, 10)
	opts := Options{MaxIters: 10}
	full, err := Solve(op, b, opts)
	if err != nil {
		t.Fatal(err)
	}

	// products: 1 init adjoint, then 2 per iteration → invocation 8 is
	// iteration 3's forward product; checkpoints exist at iters 1..3.
	flaky := &flakyOp{op: op, failAt: 8}
	res, last, err := SolveFallible(flaky, b, opts, CheckpointConfig{Interval: 1}, nil)
	if err == nil {
		t.Fatal("injected fault should surface")
	}
	if res != nil {
		t.Error("faulted solve should not return a result")
	}
	if last == nil {
		t.Fatal("faulted solve should hand back the latest checkpoint")
	}
	if last.Iter != 3 {
		t.Errorf("checkpoint at iter %d, want 3", last.Iter)
	}
	res2, _, err := SolveFallible(flaky, b, opts, CheckpointConfig{}, last)
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, "post-fault X", res2.X, full.X)
}

func TestFaultBeforeFirstCheckpoint(t *testing.T) {
	op, b := randProblem(53, 8, 6)
	flaky := &flakyOp{op: op, failAt: 1} // the very first (init) product
	res, last, err := SolveFallible(flaky, b, Options{MaxIters: 5}, CheckpointConfig{Interval: 1}, nil)
	if err == nil || res != nil || last != nil {
		t.Fatalf("init fault: res=%v last=%v err=%v; want nil, nil, error", res, last, err)
	}
}

func TestResumeShapeMismatch(t *testing.T) {
	op, b := randProblem(54, 8, 6)
	bad := &Checkpoint{Iter: 1, X: make([]complex64, 3), U: make([]complex64, 8),
		V: make([]complex64, 6), W: make([]complex64, 6)}
	if _, _, err := SolveFallible(Fallible{Op: op}, b, Options{MaxIters: 5}, CheckpointConfig{}, bad); err == nil {
		t.Error("shape-mismatched checkpoint should be rejected")
	}
}

// stepOp is a FallibleStepOperator over an infallible operator that
// counts its steps and fails the failAt-th (1-based; 0 never).
type stepOp struct {
	Fallible
	failAt, steps int
}

func (s *stepOp) ApplyStep(x []complex64, alpha float32, u, w, z []complex64) error {
	s.steps++
	if s.steps == s.failAt {
		return errors.New("injected step fault")
	}
	return s.Fallible.ApplyStep(x, alpha, u, w, z)
}

// TestFallibleStepIsDetectedOnTheOperator: SolveFallible takes the
// one-call step from any FallibleStepOperator it is given, not only from
// Fallible, and the step route is == the composed route (the capability
// hidden); a failing step surfaces as the solve's error with the last
// checkpoint, and resuming from it lands on the uninterrupted solve.
func TestFallibleStepIsDetectedOnTheOperator(t *testing.T) {
	op, b := randProblem(55, 20, 12)
	opts := Options{MaxIters: 9, ATol: 1e-30, BTol: 1e-30}
	composed, _, err := SolveFallible(struct{ FallibleOperator }{Fallible{Op: op}}, b, opts, CheckpointConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := &stepOp{Fallible: Fallible{Op: op}}
	got, _, err := SolveFallible(s, b, opts, CheckpointConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.steps != got.Iters {
		t.Errorf("%d steps for %d iterations, want one each", s.steps, got.Iters)
	}
	bitIdentical(t, "step-route X", got.X, composed.X)
	for i, r := range composed.ResidualHistory {
		if got.ResidualHistory[i] != r {
			t.Fatalf("residual %d is %g on the step route, %g composed", i, got.ResidualHistory[i], r)
		}
	}

	flaky := &stepOp{Fallible: Fallible{Op: op}, failAt: 5}
	res, last, err := SolveFallible(flaky, b, opts, CheckpointConfig{Interval: 2}, nil)
	if err == nil || res != nil || last == nil || last.Iter != 4 {
		t.Fatalf("step fault in iteration 5: res=%v checkpoint=%+v err=%v; want no result, the iteration-4 checkpoint and an error", res, last, err)
	}
	resumed, _, err := SolveFallible(flaky, b, opts, CheckpointConfig{}, last)
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, "resumed X", resumed.X, composed.X)
}

// TestOnResidualReportsEveryIteration: the hook sees ‖r‖ after every
// iteration, the converged last one included, equal to the history; a
// solve resumed from a checkpoint before its fault reports the
// iterations it re-runs again, with the same values.
func TestOnResidualReportsEveryIteration(t *testing.T) {
	op, b := randProblem(56, 40, 10)
	op.Apply(append([]complex64(nil), b[:10]...), b) // consistent: converges early
	opts := Options{MaxIters: 30, ATol: 1e-3, BTol: 1e-30}
	record := func(seen *[]float64) CheckpointConfig {
		return CheckpointConfig{Interval: 3, OnResidual: func(iter int, r float64) {
			if iter != len(*seen)+1 {
				// re-run after a resume: the value must repeat
				if (*seen)[iter-1] != r {
					t.Errorf("iteration %d re-reported %g, first %g", iter, r, (*seen)[iter-1])
				}
				return
			}
			*seen = append(*seen, r)
		}}
	}
	var seen []float64
	full, _, err := SolveFallible(Fallible{Op: op}, b, opts, record(&seen), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Converged || full.Iters == opts.MaxIters {
		t.Fatalf("the consistent solve ran %d iterations (converged %v); want an early stop", full.Iters, full.Converged)
	}
	if len(seen) != len(full.ResidualHistory) {
		t.Fatalf("hook saw %d iterations, the solve ran %d", len(seen), len(full.ResidualHistory))
	}
	for i, r := range full.ResidualHistory {
		if seen[i] != r {
			t.Fatalf("hook saw %g at iteration %d, history %g", seen[i], i+1, r)
		}
	}

	seen = nil
	flaky := &flakyOp{op: op, failAt: 12} // iteration 6's forward product
	_, last, err := SolveFallible(flaky, b, opts, record(&seen), nil)
	if err == nil || last == nil || last.Iter != 3 || len(seen) != 5 {
		t.Fatalf("fault in iteration 6: checkpoint %+v, %d reports, err %v; want the iteration-3 checkpoint after 5 reports", last, len(seen), err)
	}
	if _, _, err := SolveFallible(flaky, b, opts, record(&seen), last); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(full.ResidualHistory) {
		t.Fatalf("faulted and resumed: hook saw %d iterations, want %d", len(seen), len(full.ResidualHistory))
	}
}
