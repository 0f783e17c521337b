package mdc

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dense"
)

// emptyKernel reports zero frequencies, a degenerate shape the
// operators must treat as a no-op rather than an index panic. It
// implements mdc.Kernel and nothing more.
type emptyKernel struct{}

func (emptyKernel) NumFreqs() int                        { return 0 }
func (emptyKernel) Rows() int                            { return 4 }
func (emptyKernel) Cols() int                            { return 3 }
func (emptyKernel) Apply(f int, x, y []complex64)        {}
func (emptyKernel) ApplyAdjoint(f int, x, y []complex64) {}
func (emptyKernel) Bytes() int64                         { return 0 }

func TestFreqOperatorZeroFrequencies(t *testing.T) {
	op := &FreqOperator{K: emptyKernel{}}
	if op.Rows() != 0 || op.Cols() != 0 {
		t.Fatalf("zero-frequency operator is %dx%d, want 0x0", op.Rows(), op.Cols())
	}
	// the panicking entry points must be no-ops, not crashes
	op.Apply(nil, nil)
	op.ApplyAdjoint(nil, nil)
}

func TestShardedOperatorZeroFrequencies(t *testing.T) {
	op, err := NewShardedFreqOperator(emptyKernel{}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Apply(nil, nil); err != nil {
		t.Errorf("forward no-op: %v", err)
	}
	if err := op.ApplyAdjoint(nil, nil); err != nil {
		t.Errorf("adjoint no-op: %v", err)
	}
	if err := op.ApplyStep(nil, 1, nil, nil, nil); err != nil {
		t.Errorf("step no-op: %v", err)
	}
}

func TestFreqOperatorSingleFrequency(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	k := randKernel(rng, 1, 6, 5)
	x := dense.Random(rng, 5, 1).Data
	want := make([]complex64, 6)
	k.Mats[0].MulVec(x, want)

	// workers far beyond nf must not deadlock or duplicate work
	op := &FreqOperator{K: k, Workers: 16}
	y := make([]complex64, 6)
	op.Apply(x, y)
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("element %d: %v vs %v", i, y[i], want[i])
		}
	}
}

func TestFreqOperatorShortVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	k := randKernel(rng, 3, 4, 5)
	op := &FreqOperator{K: k}
	x := make([]complex64, op.Cols())
	y := make([]complex64, op.Rows())

	cases := []struct {
		name string
		call func()
		want string
	}{
		{"short forward input", func() { op.Apply(x[:len(x)-1], y) }, "FreqOperator input has 14 elements, want 15"},
		{"short forward output", func() { op.Apply(x, y[:len(y)-1]) }, "FreqOperator output has 11 elements, want 12"},
		{"short adjoint input", func() { op.ApplyAdjoint(y[:len(y)-1], x) }, "FreqOperator input has 11 elements, want 12"},
		{"short adjoint output", func() { op.ApplyAdjoint(y, x[:len(x)-1]) }, "FreqOperator output has 14 elements, want 15"},
	}
	for _, c := range cases {
		func() {
			defer func() {
				err, _ := recover().(error)
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s: panic value %v, want an error naming %q", c.name, err, c.want)
				}
			}()
			c.call()
		}()
	}
}

func TestShardedOperatorShortVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	k := randKernel(rng, 3, 4, 5)
	op, err := NewShardedFreqOperator(k, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex64, op.Cols())
	y := make([]complex64, op.Rows())
	if err := op.Apply(x[:len(x)-1], y); err == nil {
		t.Error("short forward input: no error")
	}
	if err := op.ApplyAdjoint(y, x[:len(x)-1]); err == nil {
		t.Error("short adjoint output: no error")
	}
	for name, step := range map[string]func() error{
		"x": func() error { return op.ApplyStep(x[:len(x)-1], 1, y, y, x) },
		"u": func() error { return op.ApplyStep(x, 1, y[:len(y)-1], y, x) },
		"w": func() error { return op.ApplyStep(x, 1, y, y[:len(y)-1], x) },
		"z": func() error { return op.ApplyStep(x, 1, y, y, x[:len(x)-1]) },
	} {
		if err := step(); err == nil {
			t.Errorf("short step %s: no error", name)
		}
	}
}

func TestFreqOperatorWorkersExceedFrequencies(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	nf, rows, cols := 2, 5, 4
	k := randKernel(rng, nf, rows, cols)
	x := dense.Random(rng, nf*cols, 1).Data
	ref := make([]complex64, nf*rows)
	(&FreqOperator{K: k, Workers: 1}).Apply(x, ref)
	for _, workers := range []int{3, 7, 64} {
		op := &FreqOperator{K: k, Workers: workers}
		y := make([]complex64, nf*rows)
		op.Apply(x, y)
		for i := range ref {
			if y[i] != ref[i] {
				t.Fatalf("workers=%d: element %d differs", workers, i)
			}
		}
	}
}
