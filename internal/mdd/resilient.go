// Fault-tolerant MDD inversion: the solve runs through a fallible
// operator (typically mdc.ShardedFreqOperator over simulated CS-2
// shards, possibly wrapped by internal/fault), checkpoints its LSQR
// state periodically, and on an operator fault restarts from the last
// checkpoint instead of from scratch — the recovery story a 48-system
// production run needs when one system drops out mid-inversion.
package mdd

import (
	"fmt"

	"repro/internal/lsqr"
	"repro/internal/mdc"
	"repro/internal/obs"
)

// Resilient-inversion metrics: restarts taken and iterations salvaged
// by resuming from checkpoints rather than re-running them.
var (
	obsRestarts  = obs.NewCounter("mdd.resilient.restarts")
	obsSalvaged  = obs.NewCounter("mdd.resilient.salvaged_iters")
	obsCkptTaken = obs.NewCounter("mdd.resilient.checkpoints")
)

// ResilientOptions configures InvertResilient.
type ResilientOptions struct {
	// LSQR carries the usual solver options.
	LSQR lsqr.Options
	// CheckpointInterval is the iteration stride between snapshots
	// (default 1: checkpoint every iteration).
	CheckpointInterval int
	// MaxRestarts bounds how many faults the solve will absorb before
	// giving up and returning the last fault (default 3).
	MaxRestarts int
	// OnCheckpoint, when non-nil, observes each snapshot (mddserve
	// streams the per-iteration residual from it).
	OnCheckpoint func(*lsqr.Checkpoint)
	// Fatal, when non-nil, classifies operator faults that must not be
	// retried: when it reports true the fault is returned immediately
	// without consuming a restart. The serving layer uses it to abort a
	// cancelled job's solve instead of restarting it MaxRestarts times.
	Fatal func(error) bool
}

// ResilientOutcome reports a fault-tolerant solve: the solver result
// plus how much recovering cost.
type ResilientOutcome struct {
	Result *lsqr.Result
	// Restarts is the number of faults absorbed.
	Restarts int
	// SalvagedIters counts iterations recovered from checkpoints across
	// all restarts (iterations that did not have to be re-run).
	SalvagedIters int
}

// InvertResilient solves A x ≈ b with checkpointed LSQR, restarting
// from the most recent checkpoint on each operator fault. It returns
// the last fault once MaxRestarts is exhausted. lsqr.ErrZeroRHS passes
// through with its trivial result, matching lsqr.Solve.
func InvertResilient(a lsqr.FallibleOperator, b []complex64, opts ResilientOptions) (*ResilientOutcome, error) {
	if opts.CheckpointInterval <= 0 {
		opts.CheckpointInterval = 1
	}
	if opts.MaxRestarts <= 0 {
		opts.MaxRestarts = 3
	}
	cfg := lsqr.CheckpointConfig{
		Interval: opts.CheckpointInterval,
		OnCheckpoint: func(c *lsqr.Checkpoint) {
			obsCkptTaken.Add(1)
			if opts.OnCheckpoint != nil {
				opts.OnCheckpoint(c)
			}
		},
	}
	out := &ResilientOutcome{}
	var resume *lsqr.Checkpoint
	for {
		res, last, err := lsqr.SolveFallible(a, b, opts.LSQR, cfg, resume)
		if err == nil || err == lsqr.ErrZeroRHS {
			out.Result = res
			return out, err
		}
		if opts.Fatal != nil && opts.Fatal(err) {
			return nil, fmt.Errorf("mdd: resilient solve aborted: %w", err)
		}
		if out.Restarts >= opts.MaxRestarts {
			return nil, fmt.Errorf("mdd: resilient solve gave up after %d restarts: %w", out.Restarts, err)
		}
		out.Restarts++
		obsRestarts.Add(1)
		// last is the newest checkpoint the faulted attempt produced; keep
		// the previous one when the fault hit before the first snapshot.
		if last != nil {
			resume = last
		}
		if resume != nil {
			out.SalvagedIters += resume.Iter
			obsSalvaged.Add(int64(resume.Iter))
		}
	}
}

// ShardedOperator returns the fault-tolerant MDC operator for this
// problem: the same per-frequency products as Operator(), scheduled
// onto the given number of simulated CS-2 shards.
func (p *Problem) ShardedOperator(shards int) (*mdc.ShardedFreqOperator, error) {
	return mdc.NewShardedFreqOperator(p.K, float32(p.DS.DArea), shards)
}
