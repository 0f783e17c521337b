// Concurrency stress tests for the sharded scheduler, meant to run
// under -race (`make race-stress`): many rounds of sharded execution
// with mid-flight shard revocation and revival hammering the worker /
// failover synchronization. Guarded by testing.Short so quick suites
// skip them.
package batch

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/testkit/suite"
)

func TestStressShardRunnerMidFlightRevocation(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; run via make race-stress")
	}
	suite.VerifyNoLeaks(t)
	for _, shards := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r, err := NewShardRunner(ShardOptions{Shards: shards, Sleep: noSleep, MaxAttempts: 64, DeathAfter: 1 << 30})
			if err != nil {
				t.Fatal(err)
			}
			const rounds = 20
			for round := 0; round < rounds; round++ {
				tasks := makeTasks(4*shards, 3)
				stop := make(chan struct{})
				revoked := make(chan struct{})
				go func() {
					defer close(revoked)
					// revoke a rotating victim mid-run, then revive it so the
					// next round starts at full capacity
					victim := round % shards
					r.Revoke(victim)
					select {
					case <-stop:
					case <-time.After(time.Millisecond):
					}
					r.Revive(victim)
				}()
				err := runWithin(t, r, tasks, func(shard int, task ShardTask) error {
					fill(task)
					return nil
				})
				close(stop)
				<-revoked
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				checkAllDone(t, tasks)
			}
		})
	}
}

func TestStressShardRunnerFlakyExecutors(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; run via make race-stress")
	}
	suite.VerifyNoLeaks(t)
	r, err := NewShardRunner(ShardOptions{Shards: 6, Sleep: noSleep, MaxAttempts: 32, DeathAfter: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	for round := 0; round < 10; round++ {
		tasks := makeTasks(48, 2)
		err := runWithin(t, r, tasks, func(shard int, task ShardTask) error {
			// deterministic-per-attempt flakiness: every 5th execution fails
			if n.Add(1)%5 == 0 {
				return fmt.Errorf("flaky attempt")
			}
			fill(task)
			return nil
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		checkAllDone(t, tasks)
	}
	if r.Alive() != 6 {
		t.Errorf("alive = %d, want 6", r.Alive())
	}
}

// TestStressWorkStealingRankSkew deals one shard ~10x the work of its
// peers (the rank-skewed tile-row distribution of a real TLR factor) and
// verifies the idle shards actually steal: the run completes, the steal
// counter moves, nobody dies, and the outputs are bitwise identical to a
// one-shard run of the same task set (no peer to steal from).
func TestStressWorkStealingRankSkew(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; run via make race-stress")
	}
	suite.VerifyNoLeaks(t)
	const shards = 4
	r, err := NewShardRunner(ShardOptions{Shards: shards, Sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	one, err := NewShardRunner(ShardOptions{Shards: 1, Sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}

	wasEnabled := obs.Enabled()
	obs.Enable()
	defer func() {
		if !wasEnabled {
			obs.Disable()
		}
	}()

	// exec simulates skewed per-task cost: tasks dealt round-robin to
	// shard 0 (ID % shards == 0) dominate the run while the rest are
	// effectively free, so the other shards drain their deques and go
	// thieving. The output is a pure function of the task ID, never of
	// the shard.
	exec := func(shard int, task ShardTask) error {
		if task.ID%shards == 0 {
			time.Sleep(2 * time.Millisecond)
		}
		fill(task)
		return nil
	}

	for round := 0; round < 5; round++ {
		before := obs.TakeSnapshot().Counter("batch.shard.steals")
		stolen := makeTasks(8*shards, 3)
		if err := runWithin(t, r, stolen, exec); err != nil {
			t.Fatalf("round %d (stealing): %v", round, err)
		}
		checkAllDone(t, stolen)
		steals := obs.TakeSnapshot().Counter("batch.shard.steals") - before
		if steals == 0 {
			t.Fatalf("round %d: rank-skewed run recorded zero steals", round)
		}
		if r.Alive() != shards {
			t.Fatalf("round %d: alive = %d, want %d (stealing must not trip the death policy)", round, r.Alive(), shards)
		}

		serial := makeTasks(8*shards, 3)
		if err := runWithin(t, one, serial, exec); err != nil {
			t.Fatalf("round %d (one shard): %v", round, err)
		}
		for i := range stolen {
			for k := range stolen[i].Y {
				if stolen[i].Y[k] != serial[i].Y[k] {
					t.Fatalf("round %d: task %d output %d differs between the stealing and one-shard schedules", round, i, k)
				}
			}
		}
	}
}
