// Sharded MDC execution: the paper's headline configuration fans the
// per-frequency TLR-MVMs out over 48 CS-2 systems (§7). Here the same
// fan-out runs over N simulated shards through batch.ShardRunner, which
// retries transient faults and re-shards a dead shard's frequencies onto
// the survivors. Because every frequency writes a disjoint output slice
// and the per-frequency product is independent of which shard computes
// it, a degraded run returns bitwise the same answer as a healthy one.
package mdc

import (
	"repro/internal/batch"
	"repro/internal/obs"
)

// Sharded-operator timers, distinct from the in-process FreqOperator
// timers so degraded-capacity throughput is visible per execution path.
var obsSharded = [...]*obs.Timer{
	forward: obs.NewTimer("mdc.sharded.apply"),
	adjoint: obs.NewTimer("mdc.sharded.adjoint"),
}

// ShardedFreqOperator is the fault-tolerant sibling of FreqOperator:
// identical math (one scaled kernel MVM per in-band frequency,
// frequency-major layout), but each frequency is a batch.ShardTask
// scheduled onto simulated CS-2 shards, and all faults surface as
// errors. It satisfies lsqr.FallibleOperator.
type ShardedFreqOperator struct {
	K     Kernel
	Scale float32
	// Runner owns shard health across calls: a shard that dies during
	// Apply stays dead for the following ApplyAdjoint, like a failed
	// physical system.
	Runner *batch.ShardRunner
	// Intercept, when non-nil, wraps the per-task executor — the hook
	// fault-injection schedules (internal/fault) attach to.
	Intercept func(batch.ShardExec) batch.ShardExec
}

// NewShardedFreqOperator builds the operator with a fresh runner of the
// given shard count and default retry policy.
func NewShardedFreqOperator(k Kernel, scale float32, shards int) (*ShardedFreqOperator, error) {
	r, err := batch.NewShardRunner(batch.ShardOptions{Shards: shards})
	if err != nil {
		return nil, err
	}
	return &ShardedFreqOperator{K: k, Scale: scale, Runner: r}, nil
}

// Rows implements lsqr.FallibleOperator: total data length nf·nsrc.
func (op *ShardedFreqOperator) Rows() int { return op.K.NumFreqs() * op.K.Rows() }

// Cols implements lsqr.FallibleOperator: total model length nf·nrec.
func (op *ShardedFreqOperator) Cols() int { return op.K.NumFreqs() * op.K.Cols() }

// Apply computes y = K x across the shard set, retrying and failing
// over per the runner's policy; an unrecoverable fault is returned.
func (op *ShardedFreqOperator) Apply(x, y []complex64) error {
	return op.run(x, y, forward)
}

// ApplyAdjoint computes y = Kᴴ x likewise.
func (op *ShardedFreqOperator) ApplyAdjoint(x, y []complex64) error {
	return op.run(x, y, adjoint)
}

func (op *ShardedFreqOperator) run(x, y []complex64, dir product) error {
	defer obsSharded[dir].Start().End()
	b := shapeFor(op.K, dir, op.Scale)
	if b.nf == 0 {
		return nil // zero-dimensional operator: nothing to apply
	}
	obsFreqCount.Add(int64(b.nf))
	if err := b.check("sharded", x, y); err != nil {
		return err
	}
	tasks := make([]batch.ShardTask, b.nf)
	for f := range tasks {
		tasks[f] = batch.ShardTask{ID: f, X: b.in(x, f), Y: b.out(y, f)}
	}
	// the product itself cannot fail; errors come from Intercept and the
	// runner's output scan
	exec := func(shard int, t batch.ShardTask) error {
		b.apply(t.ID, t.X, t.Y)
		return nil
	}
	if op.Intercept != nil {
		exec = op.Intercept(exec)
	}
	return op.Runner.Run(tasks, exec)
}
