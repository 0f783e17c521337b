package mdc

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/dense"
	"repro/internal/fault"
	"repro/internal/lsqr"
)

// shardedOver is an operator over k on shards simulated shards whose
// backoffs do not sleep, its tasks run under sched ("" for none).
func shardedOver(t *testing.T, k Kernel, scale float32, shards int, sched string) *ShardedFreqOperator {
	t.Helper()
	r, err := batch.NewShardRunner(batch.ShardOptions{Shards: shards, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	op := &ShardedFreqOperator{K: k, Scale: scale, Runner: r}
	if sched != "" {
		events, err := fault.Parse(sched)
		if err != nil {
			t.Fatal(err)
		}
		op.Intercept = fault.Shard(fault.NewInjector(events))
	}
	return op
}

// stepSchedule retries a task on shard 0, kills shard 1 and fails its
// tasks over, and hands shard 2's second task back with a NaN in its
// forward half.
const stepSchedule = "shard0:err@1,shard1:die@1,shard2:nan@2"

// TestShardedStepMatchesComposition holds ShardedFreqOperator.ApplyStep
// == FreqOperator.ApplyStep, which TestFreqOperatorStepMatchesComposition
// holds == Apply → cfloat.ScaleSub → ApplyAdjoint: fused and composed,
// in memory and store-backed, unscaled and scaled, at α = 0 with no u
// and at α ≠ 0, on 1 and 3 shards, healthy and under stepSchedule.
func TestShardedStepMatchesComposition(t *testing.T) {
	const nf, rows, cols = 5, 37, 29
	rng := rand.New(rand.NewSource(32))
	x, u := dense.Random(rng, nf*cols, 1).Data, dense.Random(rng, nf*rows, 1).Data
	for name, tk := range stepKernels(t, nf, rows, cols) {
		for _, k := range []Kernel{tk, composedKernel{tk}} {
			for _, scale := range []float32{0, 0.37} {
				for _, alpha := range []float32{0, 0.61} {
					step := u
					if alpha == 0 {
						step = nil
					}
					wantW, wantZ := make([]complex64, nf*rows), make([]complex64, nf*cols)
					(&FreqOperator{K: k, Scale: scale, Workers: 1}).ApplyStep(x, alpha, step, wantW, wantZ)
					for _, c := range []struct {
						shards int
						sched  string
					}{{1, ""}, {3, ""}, {3, stepSchedule}} {
						op := shardedOver(t, k, scale, c.shards, c.sched)
						w, z := dense.Random(rng, nf*rows, 1).Data, dense.Random(rng, nf*cols, 1).Data
						if err := op.ApplyStep(x, alpha, step, w, z); err != nil {
							t.Fatalf("%s %T scale %g α %g %+v: %v", name, k, scale, alpha, c, err)
						}
						same(t, "w", w, wantW)
						same(t, "z", z, wantZ)
						if c.sched != "" && op.Runner.Alive() != 2 {
							t.Fatalf("%+v: %d shards alive, want 2 (shard1 dies)", c, op.Runner.Alive())
						}
					}
				}
			}
		}
	}
}

// same requires got == want element for element.
func same(t *testing.T, what string, got, want []complex64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestShardedStepNaNInEitherHalfIsRetried: a step task that writes a NaN
// into its w block only, or its z block only, is caught by the runner
// and run again, and the step is == the unfaulted one.
func TestShardedStepNaNInEitherHalfIsRetried(t *testing.T) {
	const nf, rows, cols = 4, 37, 29
	rng := rand.New(rand.NewSource(33))
	x, u := dense.Random(rng, nf*cols, 1).Data, dense.Random(rng, nf*rows, 1).Data
	k := stepKernels(t, nf, rows, cols)["in-memory"]
	wantW, wantZ := make([]complex64, nf*rows), make([]complex64, nf*cols)
	if err := shardedOver(t, k, 0.37, 2, "").ApplyStep(x, 0.61, u, wantW, wantZ); err != nil {
		t.Fatal(err)
	}
	nan := complex(float32(math.NaN()), 0)
	for half, corrupt := range map[string]func(batch.ShardTask){
		"w": func(t batch.ShardTask) { t.Y[len(t.Y)/2] = nan },
		"z": func(t batch.ShardTask) { t.Z[len(t.Z)-1] = nan },
	} {
		op := shardedOver(t, k, 0.37, 2, "")
		var attempts atomic.Int64
		op.Intercept = func(next batch.ShardExec) batch.ShardExec {
			return func(shard int, task batch.ShardTask) error {
				if err := next(shard, task); err != nil || task.ID != 2 {
					return err
				}
				if attempts.Add(1) == 1 {
					corrupt(task)
				}
				return nil
			}
		}
		w, z := make([]complex64, nf*rows), make([]complex64, nf*cols)
		if err := op.ApplyStep(x, 0.61, u, w, z); err != nil {
			t.Fatalf("NaN in %s: %v", half, err)
		}
		if n := attempts.Load(); n != 2 {
			t.Errorf("NaN in %s: task 2 ran %d times, want 2", half, n)
		}
		same(t, "w", w, wantW)
		same(t, "z", z, wantZ)
	}
}

// TestShardedSolveTakesTheStep: LSQR over the sharded operator takes its
// one-call step — one shard task per frequency per iteration after the
// opening adjoint product — and its solution and residual history are
// == the same solve with the step hidden (the composed route) and the
// in-process solve over FreqOperator, healthy and under stepSchedule.
func TestShardedSolveTakesTheStep(t *testing.T) {
	const nf, rows, cols = 3, 37, 29
	rng := rand.New(rand.NewSource(34))
	b := dense.Random(rng, nf*rows, 1).Data
	opts := lsqr.Options{MaxIters: 10, ATol: 1e-30, BTol: 1e-30}
	k := stepKernels(t, nf, rows, cols)["in-memory"]
	want, err := lsqr.Solve(&FreqOperator{K: k, Scale: 0.37}, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []string{"", stepSchedule} {
		for _, hidden := range []bool{false, true} {
			op := shardedOver(t, k, 0.37, 3, sched)
			var tasks atomic.Int64
			inner := op.Intercept
			op.Intercept = func(next batch.ShardExec) batch.ShardExec {
				if inner != nil {
					next = inner(next)
				}
				return func(shard int, task batch.ShardTask) error {
					tasks.Add(1)
					return next(shard, task)
				}
			}
			var a lsqr.FallibleOperator = op
			if hidden {
				a = struct{ lsqr.FallibleOperator }{op}
			}
			got, _, err := lsqr.SolveFallible(a, b, opts, lsqr.CheckpointConfig{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameSolve(t, "sharded", got, want)
			products := int64(1 + got.Iters) // the opening adjoint, then one step each
			if hidden {
				products = int64(1 + 2*got.Iters)
			}
			if sched == "" && tasks.Load() != products*nf {
				t.Errorf("hidden %v: %d shard tasks for %d iterations, want %d", hidden, tasks.Load(), got.Iters, products*nf)
			}
		}
	}
}
