// Chaos differential tests: a full MDD-style solve runs while a seeded,
// deterministic fault schedule kills simulated CS-2 shards and fails
// whole operator products mid-solve. The fault-tolerant stack must
// absorb everything — re-sharding the orphaned frequencies, retrying
// transients, resuming from solver checkpoints — and still produce the
// fault-free answer, because task placement and checkpoint resume are
// both bitwise neutral.
package fault_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/dense"
	"repro/internal/fault"
	"repro/internal/lsqr"
	"repro/internal/mdc"
	"repro/internal/mdd"
	"repro/internal/obs"
	"repro/internal/testkit"
)

func chaosKernel(seed int64, nf, rows, cols int) *mdc.DenseKernel {
	rng := rand.New(rand.NewSource(seed))
	mats := make([]*dense.Matrix, nf)
	for i := range mats {
		mats[i] = dense.Random(rng, rows, cols)
	}
	k, err := mdc.NewDenseKernel(mats)
	if err != nil {
		panic(err)
	}
	return k
}

// shardedOp builds a sharded operator whose runner backs off without
// sleeping, so deterministic chaos schedules run at full speed.
func shardedOp(t *testing.T, k mdc.Kernel, shards int) *mdc.ShardedFreqOperator {
	t.Helper()
	runner, err := batch.NewShardRunner(batch.ShardOptions{
		Shards: shards,
		Sleep:  func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &mdc.ShardedFreqOperator{K: k, Runner: runner}
}

func TestChaosShardDeathsConverge(t *testing.T) {
	const (
		nf, rows, cols = 16, 12, 10
		shards         = 8
		iters          = 8
	)
	k := chaosKernel(11, nf, rows, cols)
	rng := rand.New(rand.NewSource(12))
	b := testkit.Vec(rng, nf*rows)

	// fault-free single-system reference
	ref, err := lsqr.Solve(&mdc.FreqOperator{K: k}, b, lsqr.Options{MaxIters: iters})
	if err != nil {
		t.Fatal(err)
	}

	// 2-of-8 shards die mid-solve, one shard throws a transient error,
	// and one whole operator product fails late enough that the solver
	// must resume from a checkpoint rather than restart from scratch.
	sched, err := fault.Parse("shard2:die@3,shard5:die@5,shard1:err@2,op:err@8")
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(sched)
	inj.Sleep = func(time.Duration) {}
	op := shardedOp(t, k, shards)
	op.Intercept = fault.Shard(inj)
	wrapped := fault.WrapOperator(op, inj)

	obs.Enable()
	obs.Reset()
	defer obs.Disable()
	out, err := mdd.InvertResilient(wrapped, b, mdd.ResilientOptions{
		LSQR:               lsqr.Options{MaxIters: iters},
		CheckpointInterval: 1,
		MaxRestarts:        3,
	})
	if err != nil {
		t.Fatalf("resilient solve did not survive the schedule: %v", err)
	}
	snap := obs.TakeSnapshot()

	if got := op.Runner.Alive(); got != shards-2 {
		t.Errorf("alive shards = %d, want %d (2 deaths scheduled)", got, shards-2)
	}
	if out.Restarts == 0 {
		t.Error("op:err@8 should have forced at least one solver restart")
	}
	if out.SalvagedIters == 0 {
		t.Error("restart should have resumed from a checkpoint, salvaging iterations")
	}
	if got := snap.Counter("batch.shard.failovers"); got == 0 {
		t.Error("failover counter is zero; dead shards' tasks were never re-sharded")
	}
	if got := snap.Counter("batch.shard.retries"); got == 0 {
		t.Error("retry counter is zero; transient shard faults were never retried in place")
	}
	if got := snap.Counter("batch.shard.deaths"); got != 2 {
		t.Errorf("death counter = %d, want 2", got)
	}
	if got := snap.Counter("mdd.resilient.restarts"); got == 0 {
		t.Error("restart counter is zero despite the injected operator fault")
	}
	if got := snap.Counter("fault.injected"); got == 0 {
		t.Error("injection counter is zero; the schedule never fired")
	}

	// Re-sharding and checkpoint resume are bitwise neutral, so the
	// faulted solve must land within 1e-5 of the fault-free result (in
	// practice exactly on it).
	if e := testkit.RelErr(out.Result.X, ref.X); e > 1e-5 {
		t.Errorf("faulted solve deviates from fault-free: relErr %.3g > 1e-5", e)
	}
	if out.Result.Iters != ref.Iters {
		t.Errorf("faulted solve took %d iters, fault-free %d", out.Result.Iters, ref.Iters)
	}
}

func TestZeroFaultScheduleBitIdentical(t *testing.T) {
	const (
		nf, rows, cols = 12, 9, 7
		shards         = 8
		iters          = 10
	)
	k := chaosKernel(21, nf, rows, cols)
	rng := rand.New(rand.NewSource(22))
	b := testkit.Vec(rng, nf*rows)

	ref, err := lsqr.Solve(&mdc.FreqOperator{K: k}, b, lsqr.Options{MaxIters: iters})
	if err != nil {
		t.Fatal(err)
	}

	inj := fault.NewInjector(nil) // empty schedule
	op := shardedOp(t, k, shards)
	op.Intercept = fault.Shard(inj)
	out, err := mdd.InvertResilient(fault.WrapOperator(op, inj), b, mdd.ResilientOptions{
		LSQR:               lsqr.Options{MaxIters: iters},
		CheckpointInterval: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Restarts != 0 {
		t.Errorf("zero-fault schedule took %d restarts", out.Restarts)
	}
	if len(out.Result.X) != len(ref.X) {
		t.Fatalf("solution length %d != %d", len(out.Result.X), len(ref.X))
	}
	for i := range ref.X {
		if out.Result.X[i] != ref.X[i] {
			t.Fatalf("element %d differs: sharded %v, unsharded %v (must be bit-identical)",
				i, out.Result.X[i], ref.X[i])
		}
	}
	if op.Runner.Alive() != shards {
		t.Errorf("alive shards = %d, want all %d", op.Runner.Alive(), shards)
	}
}

// TestChaosNaNCorruptionRecovers injects silent output corruption: the
// shard "succeeds" but returns NaN, which output validation must catch
// and recompute — the answer stays clean.
func TestChaosNaNCorruptionRecovers(t *testing.T) {
	const (
		nf, rows, cols = 8, 6, 5
		shards         = 4
	)
	k := chaosKernel(31, nf, rows, cols)
	rng := rand.New(rand.NewSource(32))
	x := testkit.Vec(rng, nf*cols)

	want := make([]complex64, nf*rows)
	(&mdc.FreqOperator{K: k}).Apply(x, want)

	sched, err := fault.Parse("shard0:nan@1,shard3:nan@2")
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(sched)
	op := shardedOp(t, k, shards)
	op.Intercept = fault.Shard(inj)

	got := make([]complex64, nf*rows)
	if err := op.Apply(x, got); err != nil {
		t.Fatalf("NaN corruption should be recomputed, not fatal: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d differs after NaN recovery: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestChaosStickyDeathFailoverCounts pins what surviving one dead shard
// costs, from the runner's policy rather than from a recorded run: a
// shard whose every execution fails retries its first task in place
// until DeathAfter consecutive failures kill it, so the run executes
// exactly DeathAfter extra attempts, DeathAfter−1 of them retries, and
// fails over that task plus whatever the shard still had queued — at
// least the one task, at most its whole deal. Retries stay pinned and a
// steal leaves its victim a task, so the counts hold for every steal
// schedule; the product is bit-identical to the unsharded one.
func TestChaosStickyDeathFailoverCounts(t *testing.T) {
	const (
		nf, rows, cols = 22, 6, 5
		shards         = 4
	)
	k := chaosKernel(41, nf, rows, cols)
	x := testkit.Vec(rand.New(rand.NewSource(42)), nf*cols)
	want := make([]complex64, nf*rows)
	(&mdc.FreqOperator{K: k}).Apply(x, want)

	sched, err := fault.Parse("shard2:die@1")
	if err != nil {
		t.Fatal(err)
	}

	obs.Enable()
	defer obs.Disable()
	for _, deathAfter := range []int{1, 2, 3} {
		runner, err := batch.NewShardRunner(batch.ShardOptions{
			Shards: shards, DeathAfter: deathAfter, Sleep: func(time.Duration) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		op := &mdc.ShardedFreqOperator{K: k, Runner: runner, Intercept: fault.Shard(fault.NewInjector(sched))}

		before := obs.TakeSnapshot()
		got := make([]complex64, nf*rows)
		if err := op.Apply(x, got); err != nil {
			t.Fatalf("DeathAfter=%d: one dead shard of %d must not fail the product: %v", deathAfter, shards, err)
		}
		after := obs.TakeSnapshot()
		delta := func(name string) int64 { return after.Counter(name) - before.Counter(name) }

		if extra := delta("batch.shard.execs") - nf; extra != int64(deathAfter) {
			t.Errorf("DeathAfter=%d: %d extra executions, want %d", deathAfter, extra, deathAfter)
		}
		if n := delta("batch.shard.retries"); n != int64(deathAfter-1) {
			t.Errorf("DeathAfter=%d: %d in-place retries, want %d", deathAfter, n, deathAfter-1)
		}
		if n := delta("batch.shard.deaths"); n != 1 || !runner.Dead(2) {
			t.Errorf("DeathAfter=%d: %d deaths (shard 2 dead: %v), want exactly shard 2", deathAfter, n, runner.Dead(2))
		}
		if n, deal := delta("batch.shard.failovers"), int64((nf+shards-1)/shards); n < 1 || n > deal {
			t.Errorf("DeathAfter=%d: %d failovers, want between 1 and the shard's deal of %d", deathAfter, n, deal)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("DeathAfter=%d: element %d differs after failover: %v vs %v", deathAfter, i, got[i], want[i])
			}
		}
	}
}
