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

	var resume *Checkpoint
	_, _, err = SolveFallible(Fallible{Op: op}, b, opts, CheckpointConfig{
		Interval: 5,
		OnCheckpoint: func(c *Checkpoint) {
			if c.Iter == 5 {
				resume = c
			}
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resume == nil {
		t.Fatal("no checkpoint taken at iteration 5")
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
