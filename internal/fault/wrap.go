// Wrappers that attach an Injector to the two seams where errors enter
// the execution stack: whole operators (lsqr.FallibleOperator) and
// simulated CS-2 shard executors (batch.ShardExec). Each wrapper
// advances its target's invocation count, fails or delays per the
// schedule, and corrupts outputs to NaN for NaN events — downstream
// validation must catch the corruption, not the wrapper.
package fault

import (
	"math"
	"strconv"

	"repro/internal/batch"
	"repro/internal/lsqr"
)

// corrupt overwrites y's first element with NaN — the minimal silent
// corruption the shard runner's output validation must detect.
func corrupt(y []complex64) {
	if len(y) > 0 {
		nan := float32(math.NaN())
		y[0] = complex(nan, nan)
	}
}

// operator wraps a FallibleOperator with fault injection on whole
// forward/adjoint products (one invocation of injector target "op" per
// product) — the layer that exercises solver checkpoint/resume. It has
// no ApplyStep, so a wrapped solve takes the two-sweep composed route.
type operator struct {
	lsqr.FallibleOperator
	inj *Injector
}

// opTarget is the injector stream name of whole products.
const opTarget = "op"

// WrapOperator attaches inj to op under target "op". A schedule that
// names no "op" event cannot fault a whole product, so op comes back
// unwrapped and a solve over it keeps any one-sweep ApplyStep it has.
func WrapOperator(op lsqr.FallibleOperator, inj *Injector) lsqr.FallibleOperator {
	if !inj.names(opTarget) {
		return op
	}
	return &operator{FallibleOperator: op, inj: inj}
}

// Apply implements lsqr.FallibleOperator with injection.
func (o *operator) Apply(x, y []complex64) error {
	dec := o.inj.advance(opTarget)
	if dec.Err != nil {
		return dec.Err
	}
	if err := o.FallibleOperator.Apply(x, y); err != nil {
		return err
	}
	if dec.NaN {
		corrupt(y)
	}
	return nil
}

// ApplyAdjoint implements lsqr.FallibleOperator with injection.
func (o *operator) ApplyAdjoint(x, y []complex64) error {
	dec := o.inj.advance(opTarget)
	if dec.Err != nil {
		return dec.Err
	}
	if err := o.FallibleOperator.ApplyAdjoint(x, y); err != nil {
		return err
	}
	if dec.NaN {
		corrupt(y)
	}
	return nil
}

// Shard returns the batch intercept middleware that injects faults per
// simulated shard: each execution on shard s advances target "shard<s>"
// (shard0, shard1, …) — the hook mdc.ShardedFreqOperator.Intercept
// accepts. Because the runner drains each shard's queue sequentially,
// per-shard invocation counts are deterministic for a fixed task set.
func Shard(inj *Injector) func(batch.ShardExec) batch.ShardExec {
	return func(next batch.ShardExec) batch.ShardExec {
		return func(shard int, task batch.ShardTask) error {
			dec := inj.advance(shardTarget(shard))
			if dec.Err != nil {
				return dec.Err
			}
			if err := next(shard, task); err != nil {
				return err
			}
			if dec.NaN {
				corrupt(task.Y)
			}
			return nil
		}
	}
}

// shardTarget returns the injector stream name for a shard index, the
// name schedules use ("shard0", "shard1", …).
func shardTarget(shard int) string { return "shard" + strconv.Itoa(shard) }
