package batch

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testkit/suite"
)

func noSleep(time.Duration) {}

// waitBound bounds every wait in these tests for a wakeup, so a missing
// broadcast fails the waiting test by name in seconds instead of hanging
// the binary until its timeout.
const waitBound = 10 * time.Second

// runWithin runs r.Run on its own goroutine and fails the test when Run
// has not returned within waitBound.
func runWithin(t *testing.T, r *ShardRunner, tasks []ShardTask, exec ShardExec) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- r.Run(tasks, exec) }()
	select {
	case err := <-done:
		return err
	case <-time.After(waitBound):
		t.Fatalf("Run did not return within %v", waitBound)
		return nil
	}
}

// parked reports whether n shard workers parked on the runner's
// condition variable within waitBound. Exec callbacks use it to hold a
// task until its peers have run out of work, so what happens next has
// to wake them.
func parked(n int) bool {
	return suite.WaitParked("batch.(*ShardRunner).worker", n, waitBound)
}

func makeTasks(n, width int) []ShardTask {
	tasks := make([]ShardTask, n)
	for i := range tasks {
		tasks[i] = ShardTask{
			ID: i,
			X:  make([]complex64, width),
			Y:  make([]complex64, width),
		}
	}
	return tasks
}

// fill marks a task's output so tests can assert every task executed.
func fill(task ShardTask) {
	for i := range task.Y {
		task.Y[i] = complex(float32(task.ID+1), 0)
	}
}

func checkAllDone(t *testing.T, tasks []ShardTask) {
	t.Helper()
	for _, task := range tasks {
		for i, v := range task.Y {
			if v != complex(float32(task.ID+1), 0) {
				t.Fatalf("task %d output %d = %v, not fully written", task.ID, i, v)
			}
		}
	}
}

// TestShardRunnerHappyPath: every task runs and every shard survives.
// Task 0 finishes last, after the other three shards have run out of
// work and parked, so the run's last completion has to wake them.
func TestShardRunnerHappyPath(t *testing.T) {
	r, err := NewShardRunner(ShardOptions{Shards: 4, Sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	tasks := makeTasks(10, 3)
	if err := runWithin(t, r, tasks, func(shard int, task ShardTask) error {
		if task.ID == 0 && !parked(3) {
			t.Errorf("three idle shards not parked within %v", waitBound)
		}
		fill(task)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	checkAllDone(t, tasks)
	if r.Alive() != 4 {
		t.Errorf("alive = %d, want 4", r.Alive())
	}
}

func TestShardRunnerValidation(t *testing.T) {
	if _, err := NewShardRunner(ShardOptions{Shards: 0}); err == nil {
		t.Error("zero shards should error")
	}
	r, _ := NewShardRunner(ShardOptions{Shards: 2, Sleep: noSleep})
	if r.Alive() != 2 {
		t.Errorf("Alive() = %d, want both shards live", r.Alive())
	}
}

func TestShardRunnerTransientRetry(t *testing.T) {
	r, err := NewShardRunner(ShardOptions{Shards: 2, Sleep: noSleep, DeathAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	var failed atomic.Bool
	tasks := makeTasks(6, 2)
	if err := runWithin(t, r, tasks, func(shard int, task ShardTask) error {
		if task.ID == 2 && !failed.Swap(true) {
			return errors.New("transient")
		}
		fill(task)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	checkAllDone(t, tasks)
	if r.Alive() != 2 {
		t.Errorf("transient failure killed a shard: alive = %d", r.Alive())
	}
}

func TestShardRunnerDeathAndFailover(t *testing.T) {
	r, err := NewShardRunner(ShardOptions{Shards: 3, Sleep: noSleep, DeathAfter: 2, MaxAttempts: 6})
	if err != nil {
		t.Fatal(err)
	}
	tasks := makeTasks(9, 2)
	if err := runWithin(t, r, tasks, func(shard int, task ShardTask) error {
		if shard == 1 {
			return fmt.Errorf("shard %d is broken", shard)
		}
		fill(task)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	checkAllDone(t, tasks)
	if !r.Dead(1) {
		t.Error("persistently failing shard 1 should be dead")
	}
	if r.Alive() != 2 {
		t.Errorf("alive = %d, want 2", r.Alive())
	}
}

func TestShardRunnerMaxAttemptsFatal(t *testing.T) {
	r, err := NewShardRunner(ShardOptions{Shards: 2, Sleep: noSleep, MaxAttempts: 3, DeathAfter: 10})
	if err != nil {
		t.Fatal(err)
	}
	tasks := makeTasks(4, 2)
	err = runWithin(t, r, tasks, func(shard int, task ShardTask) error {
		if task.ID == 1 {
			return errors.New("always fails")
		}
		fill(task)
		return nil
	})
	if err == nil {
		t.Fatal("task that fails everywhere should fail the run")
	}
}

func TestShardRunnerAllDeadFatal(t *testing.T) {
	r, err := NewShardRunner(ShardOptions{Shards: 2, Sleep: noSleep, DeathAfter: 1, MaxAttempts: 20})
	if err != nil {
		t.Fatal(err)
	}
	tasks := makeTasks(6, 2)
	err = runWithin(t, r, tasks, func(shard int, task ShardTask) error {
		return errors.New("everything is on fire")
	})
	if err == nil {
		t.Fatal("all shards dying should fail the run")
	}
	if r.Alive() != 0 {
		t.Errorf("alive = %d, want 0", r.Alive())
	}
	// a runner with no capacity refuses further runs
	if err := runWithin(t, r, makeTasks(1, 1), func(int, ShardTask) error { return nil }); err == nil {
		t.Error("run with zero alive shards should error")
	}
}

func TestShardRunnerReviveRestoresCapacity(t *testing.T) {
	r, err := NewShardRunner(ShardOptions{Shards: 2, Sleep: noSleep, DeathAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.Revoke(0)
	r.Revoke(1)
	if r.Alive() != 0 {
		t.Fatalf("alive = %d after revoking all", r.Alive())
	}
	r.Revive(0)
	tasks := makeTasks(3, 1)
	if err := runWithin(t, r, tasks, func(shard int, task ShardTask) error {
		if shard != 0 {
			return fmt.Errorf("task ran on dead shard %d", shard)
		}
		fill(task)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	checkAllDone(t, tasks)
}

func TestShardRunnerNaNValidation(t *testing.T) {
	r, err := NewShardRunner(ShardOptions{Shards: 2, Sleep: noSleep, DeathAfter: 5})
	if err != nil {
		t.Fatal(err)
	}
	nan := float32(math.NaN())
	var corrupted atomic.Bool
	tasks := makeTasks(4, 2)
	if err := runWithin(t, r, tasks, func(shard int, task ShardTask) error {
		fill(task)
		if task.ID == 3 && !corrupted.Swap(true) {
			task.Y[0] = complex(nan, 0) // silent corruption, exactly once
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	checkAllDone(t, tasks) // the corrupted attempt must have been recomputed
}

func TestShardRunnerRejectsConcurrentRun(t *testing.T) {
	r, err := NewShardRunner(ShardOptions{Shards: 1, Sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	tasks := makeTasks(1, 1)
	go func() {
		done <- r.Run(tasks, func(shard int, task ShardTask) error {
			close(started)
			<-release
			fill(task)
			return nil
		})
	}()
	<-started
	if err := runWithin(t, r, makeTasks(1, 1), func(int, ShardTask) error { return nil }); err == nil {
		t.Error("concurrent Run should be rejected")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestShardRunnerEmptyTasks(t *testing.T) {
	r, err := NewShardRunner(ShardOptions{Shards: 3, Sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	if err := runWithin(t, r, nil, func(int, ShardTask) error {
		t.Error("exec called with no tasks")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
