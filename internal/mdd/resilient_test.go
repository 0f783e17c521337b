package mdd

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dense"
	"repro/internal/lsqr"
	"repro/internal/seismic"
)

// dyingOp fails every product from invocation failFrom on — a fault no
// number of restarts can outrun.
type dyingOp struct {
	op       lsqr.Operator
	failFrom int
	count    int
}

func (d *dyingOp) Rows() int { return d.op.Rows() }
func (d *dyingOp) Cols() int { return d.op.Cols() }
func (d *dyingOp) Apply(x, y []complex64) error {
	d.count++
	if d.count >= d.failFrom {
		return errors.New("persistent fault")
	}
	d.op.Apply(x, y)
	return nil
}
func (d *dyingOp) ApplyAdjoint(x, y []complex64) error {
	d.count++
	if d.count >= d.failFrom {
		return errors.New("persistent fault")
	}
	d.op.ApplyAdjoint(x, y)
	return nil
}

func resilientProblem(seed int64, m, n int) (lsqr.Operator, []complex64) {
	rng := rand.New(rand.NewSource(seed))
	a := dense.Random(rng, m, n)
	b := dense.Random(rng, m, 1).Data
	return &lsqr.MatOperator{M: m, N: n, Fwd: a.MulVec, Adj: a.MulVecConjTrans}, b
}

func TestInvertResilientGivesUpAfterMaxRestarts(t *testing.T) {
	op, b := resilientProblem(101, 12, 8)
	dying := &dyingOp{op: op, failFrom: 6}
	out, err := InvertResilient(dying, b, ResilientOptions{
		LSQR:        lsqr.Options{MaxIters: 10},
		MaxRestarts: 2,
	})
	if err == nil || out != nil {
		t.Fatalf("persistent fault should exhaust restarts (out=%v err=%v)", out, err)
	}
	if !strings.Contains(err.Error(), "gave up after 2 restarts") {
		t.Errorf("err = %v, want restart count in message", err)
	}
	if !strings.Contains(err.Error(), "persistent fault") {
		t.Errorf("err = %v, want the underlying fault wrapped", err)
	}
}

func TestInvertResilientZeroRHS(t *testing.T) {
	op, _ := resilientProblem(102, 10, 7)
	out, err := InvertResilient(lsqr.Fallible{Op: op}, make([]complex64, 10), ResilientOptions{
		LSQR: lsqr.Options{MaxIters: 5},
	})
	if !errors.Is(err, lsqr.ErrZeroRHS) {
		t.Fatalf("err = %v, want ErrZeroRHS", err)
	}
	if out == nil || out.Result == nil || !out.Result.Converged {
		t.Error("zero RHS should pass through with its trivial converged result")
	}
}

// TestShardedOperatorAcceptsPlainKernel: the sharded route needs
// nothing of a kernel beyond mdc.Kernel — faults enter at the shard
// executor, not at the kernel.
func TestShardedOperatorAcceptsPlainKernel(t *testing.T) {
	p := &Problem{DS: &seismic.Dataset{DArea: 1}, K: plainKernel{}}
	op, err := p.ShardedOperator(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Apply(make([]complex64, 1), make([]complex64, 1)); err != nil {
		t.Errorf("sharded product over a plain kernel: %v", err)
	}
	if _, err := p.ShardedOperator(0); err == nil {
		t.Error("zero shards accepted")
	}
}

// plainKernel implements mdc.Kernel and nothing more.
type plainKernel struct{}

func (plainKernel) NumFreqs() int                        { return 1 }
func (plainKernel) Rows() int                            { return 1 }
func (plainKernel) Cols() int                            { return 1 }
func (plainKernel) Apply(f int, x, y []complex64)        {}
func (plainKernel) ApplyAdjoint(f int, x, y []complex64) {}
func (plainKernel) Bytes() int64                         { return 0 }
