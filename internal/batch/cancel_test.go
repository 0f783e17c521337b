// Wakeup tests for the ways a run or a shard is cut short: a task out
// of attempts ends the run, and a dying shard hands its tasks to its
// peers. Each holds the failing task until its peers have parked, so the
// failure path itself has to wake them, and bounds the wait.
package batch

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testkit/suite"
)

// TestCancelRunOnFatalTaskWakesParkedShards: a task that runs out of
// attempts ends the run, and the shards that had parked for want of
// work are woken to exit, so Run returns the error.
func TestCancelRunOnFatalTaskWakesParkedShards(t *testing.T) {
	suite.VerifyNoLeaks(t)
	r, err := NewShardRunner(ShardOptions{Shards: 2, Sleep: noSleep, MaxAttempts: 1, DeathAfter: 10})
	if err != nil {
		t.Fatal(err)
	}
	err = runWithin(t, r, makeTasks(2, 1), func(shard int, task ShardTask) error {
		if task.ID == 0 {
			if !parked(1) {
				t.Errorf("shard 1 not parked within %v", waitBound)
			}
			return errors.New("task 0 always fails")
		}
		fill(task)
		return nil
	})
	if err == nil {
		t.Fatal("a task out of attempts must fail the run")
	}
}

// TestCancelledShardRetryWakesParkedPeer: a shard that dies on a task
// hands the task, once its backoff is over, to the peer that has parked
// for want of work, and the hand-off wakes it.
func TestCancelledShardRetryWakesParkedPeer(t *testing.T) {
	suite.VerifyNoLeaks(t)
	backoff := func(time.Duration) {
		if !parked(1) {
			t.Errorf("shard 1 not parked within %v", waitBound)
		}
	}
	r, err := NewShardRunner(ShardOptions{Shards: 2, Sleep: backoff, DeathAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	tasks := makeTasks(2, 1)
	if err := runWithin(t, r, tasks, func(shard int, task ShardTask) error {
		if shard == 0 {
			return errors.New("shard 0 is broken")
		}
		fill(task)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	checkAllDone(t, tasks)
	if !r.Dead(0) || r.Dead(1) {
		t.Errorf("dead shards: 0=%v 1=%v, want only shard 0", r.Dead(0), r.Dead(1))
	}
}

// TestCancelledShardOrphansRunDuringBackoff: the tasks still queued on a
// shard that dies move to a parked peer and run while the dying shard
// backs off, not after. The backoff here lasts until they have run.
func TestCancelledShardOrphansRunDuringBackoff(t *testing.T) {
	suite.VerifyNoLeaks(t)
	orphanRan := make(chan struct{})
	backoff := func(time.Duration) {
		select {
		case <-orphanRan:
		case <-time.After(waitBound):
			t.Errorf("the dead shard's queued task did not run within %v of its death", waitBound)
		}
	}
	r, err := NewShardRunner(ShardOptions{Shards: 2, Sleep: backoff, DeathAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Dealt round-robin: shard 0 queues tasks 0 and 2 and runs 2 first,
	// shard 1 runs task 1. Task 1 ends only once task 2 has started, so
	// task 0 is by then the last entry on shard 0's queue, which is not
	// stealable, and shard 1 parks.
	tasks := makeTasks(3, 1)
	started := make(chan struct{})
	if err := runWithin(t, r, tasks, func(shard int, task ShardTask) error {
		if shard == 0 {
			close(started)
			if !parked(1) {
				t.Errorf("shard 1 not parked within %v", waitBound)
			}
			return errors.New("shard 0 is broken")
		}
		switch task.ID {
		case 0:
			close(orphanRan)
		case 1:
			<-started
		}
		fill(task)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	checkAllDone(t, tasks)
}

// TestCancelContextErrorEndsRun: a task that returns a context error
// ends the run with it at once — no retry, no backoff, no shard death —
// and the runner serves the next run on every shard.
func TestCancelContextErrorEndsRun(t *testing.T) {
	suite.VerifyNoLeaks(t)
	for _, cause := range []error{context.Canceled, context.DeadlineExceeded} {
		r, err := NewShardRunner(ShardOptions{Shards: 2, DeathAfter: 1, Sleep: func(time.Duration) {
			t.Errorf("%v: a context error backed off", cause)
		}})
		if err != nil {
			t.Fatal(err)
		}
		var calls atomic.Int64
		err = runWithin(t, r, makeTasks(1, 1), func(int, ShardTask) error {
			calls.Add(1)
			return cause
		})
		if !errors.Is(err, cause) {
			t.Fatalf("run error %v, want %v", err, cause)
		}
		if n := calls.Load(); n != 1 {
			t.Errorf("%v: the task ran %d times, want once", cause, n)
		}
		if r.Alive() != 2 {
			t.Errorf("%v: %d of 2 shards alive", cause, r.Alive())
		}
		tasks := makeTasks(4, 2)
		if err := runWithin(t, r, tasks, func(_ int, task ShardTask) error { fill(task); return nil }); err != nil {
			t.Fatal(err)
		}
		checkAllDone(t, tasks)
	}
}
