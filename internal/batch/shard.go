// Package batch is the sharded executor: the paper's headline run spreads
// the TLR-MVM frequency fan-out over 48 physical CS-2 systems (§7), and
// ShardRunner is the failure-domain-aware version of that fan-out:
// independent per-frequency tasks are assigned to N simulated shards, and
// when a shard misbehaves — returns errors, goes silent, or emits
// corrupted (NaN) output — its orphaned tasks are re-sharded onto the
// survivors with bounded retries and exponential backoff. Retries, failovers, deaths, and the surviving
// capacity are all published through the obs registry so degraded-mode
// throughput is observable, not silent.
package batch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// Sharded-execution metrics: per-Run timer plus counters for executed
// attempts, same-shard retries, cross-shard failovers, and shard deaths;
// the alive gauge reports the post-run surviving capacity (degraded-mode
// throughput is execs over the run timer at that capacity).
var (
	obsShardRun       = obs.NewTimer("batch.shard.run")
	obsShardExecs     = obs.NewCounter("batch.shard.execs")
	obsShardRetries   = obs.NewCounter("batch.shard.retries")
	obsShardFailovers = obs.NewCounter("batch.shard.failovers")
	obsShardDeaths    = obs.NewCounter("batch.shard.deaths")
	obsShardSteals    = obs.NewCounter("batch.shard.steals")
	obsShardAlive     = obs.NewGauge("batch.shard.alive")
)

// ShardTask is one unit of sharded work: an input view and the disjoint
// output views its executor must fully overwrite. ID is caller-defined
// (the MDC fan-out uses the frequency index). Z is a second output, nil
// for a one-output task; the LSQR step writes its forward half to Y and
// its adjoint half to Z.
type ShardTask struct {
	ID      int
	X, Y, Z []complex64
}

// ShardExec executes one task on one shard. It must fully overwrite
// task.Y and task.Z on success so a retried task leaves no stale partial
// output. A context error (context.Canceled, DeadlineExceeded) ends the
// run: it is returned as is, with no retry and no charge to the shard.
type ShardExec func(shard int, task ShardTask) error

// Retry backoff: the delay before a failed task re-executes starts at
// backoff and doubles with each attempt, capped at maxBackoff.
const (
	backoff    = time.Millisecond
	maxBackoff = 50 * time.Millisecond
)

// ShardOptions configures a ShardRunner. A successful execution whose
// output contains NaN is always treated as a shard failure
// (corrupted-result detection). A task that panics fails that attempt
// with the panic value as its error; it is retried, but the panic is
// the task's data at fault (a corrupt store tile every shard would
// read), so it never counts toward DeathAfter.
type ShardOptions struct {
	// Shards is the number of simulated systems (≥ 1).
	Shards int
	// MaxAttempts bounds how many times one task may execute across all
	// shards before the run fails (default 4).
	MaxAttempts int
	// DeathAfter is the consecutive-failure count that declares a shard
	// dead and triggers failover of its queue (default 2).
	DeathAfter int
	// Sleep replaces time.Sleep for the backoff delays (tests inject a
	// no-op to keep deterministic schedules fast).
	Sleep func(time.Duration)
}

func (o ShardOptions) withDefaults() ShardOptions {
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 4
	}
	if o.DeathAfter == 0 {
		o.DeathAfter = 2
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	return o
}

// ShardRunner owns the health state of a set of simulated shards across
// runs: a shard that dies (or is revoked) stays dead for subsequent
// Run calls, the way a failed physical system stays out of the job until
// an operator revives it.
type ShardRunner struct {
	opts ShardOptions

	mu   sync.Mutex
	cond *sync.Cond
	dead []bool
	// per-run state, guarded by mu
	running   bool
	tasks     []ShardTask
	queues    [][]pendingTask
	consec    []int
	remaining int
	fatal     error
	rr        int
}

type pendingTask struct {
	idx      int // index into tasks
	attempts int // completed (failed) execution attempts
}

// NewShardRunner validates the options and returns a runner with every
// shard alive.
func NewShardRunner(opts ShardOptions) (*ShardRunner, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("batch: shard count %d < 1", opts.Shards)
	}
	r := &ShardRunner{opts: opts.withDefaults(), dead: make([]bool, opts.Shards)}
	r.cond = sync.NewCond(&r.mu)
	return r, nil
}

// Alive returns the number of live shards.
func (r *ShardRunner) Alive() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.aliveLocked()
}

func (r *ShardRunner) aliveLocked() int {
	n := 0
	for _, d := range r.dead {
		if !d {
			n++
		}
	}
	return n
}

// Dead reports whether a shard has been declared dead.
func (r *ShardRunner) Dead(shard int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return shard >= 0 && shard < len(r.dead) && r.dead[shard]
}

// Revoke declares a shard dead from outside — mid-flight revocation is
// allowed and re-shards the shard's queued tasks onto survivors. A task
// currently executing on the revoked shard is kept if it succeeds.
func (r *ShardRunner) Revoke(shard int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if shard < 0 || shard >= len(r.dead) || r.dead[shard] {
		return
	}
	r.killLocked(shard)
	r.cond.Broadcast()
}

// Revive returns a dead shard to service (the operator action after a
// failed system is replaced).
func (r *ShardRunner) Revive(shard int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if shard >= 0 && shard < len(r.dead) {
		r.dead[shard] = false
		if shard < len(r.consec) {
			r.consec[shard] = 0
		}
	}
}

// killLocked marks a shard dead and fails its queue over to survivors.
func (r *ShardRunner) killLocked(shard int) {
	r.dead[shard] = true
	obsShardDeaths.Add(1)
	if r.queues == nil {
		return
	}
	orphans := r.queues[shard]
	r.queues[shard] = nil
	if len(orphans) > 0 {
		obsShardFailovers.Add(int64(len(orphans)))
		for _, p := range orphans {
			if !r.enqueueLocked(p) {
				return
			}
		}
	}
	if r.aliveLocked() == 0 && r.remaining > 0 && r.fatal == nil {
		r.fatal = fmt.Errorf("batch: all %d shards dead with %d tasks outstanding", len(r.dead), r.remaining)
	}
}

// enqueueLocked places a pending task on the next alive shard
// round-robin. Returns false when no shard is alive (fatal is set).
func (r *ShardRunner) enqueueLocked(p pendingTask) bool {
	for probe := 0; probe < len(r.dead); probe++ {
		s := r.rr % len(r.dead)
		r.rr++
		if !r.dead[s] {
			r.queues[s] = append(r.queues[s], p)
			return true
		}
	}
	if r.fatal == nil {
		r.fatal = fmt.Errorf("batch: all %d shards dead with %d tasks outstanding", len(r.dead), r.remaining)
	}
	return false
}

// Run executes every task, tolerating shard failures: a failing task
// backs off exponentially and retries; a shard that fails DeathAfter
// consecutive tasks (or is revoked) dies and its queue fails over to the
// survivors; a task that cannot complete within MaxAttempts anywhere, or
// the death of the last shard, fails the run, and so does the first
// task that returns a context error. Task outputs are bitwise
// independent of which shard computed them, so a degraded run returns
// exactly the healthy run's answer. Run must not be called concurrently
// with itself on one runner.
func (r *ShardRunner) Run(tasks []ShardTask, exec ShardExec) error {
	defer obsShardRun.Start().End()
	r.mu.Lock()
	if r.running {
		r.mu.Unlock()
		return fmt.Errorf("batch: ShardRunner.Run called concurrently")
	}
	if r.aliveLocked() == 0 {
		r.mu.Unlock()
		return fmt.Errorf("batch: no alive shards (0 of %d)", len(r.dead))
	}
	r.running = true
	r.tasks = tasks
	r.queues = make([][]pendingTask, len(r.dead))
	r.consec = make([]int, len(r.dead))
	r.remaining = len(tasks)
	r.fatal = nil
	r.rr = 0
	for i := range tasks {
		if !r.enqueueLocked(pendingTask{idx: i}) {
			break
		}
	}
	r.mu.Unlock()

	var wg sync.WaitGroup
	for s := 0; s < len(r.dead); s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			r.worker(s, exec)
		}(s)
	}
	wg.Wait()

	r.mu.Lock()
	err := r.fatal
	alive := r.aliveLocked()
	r.running = false
	r.tasks, r.queues, r.consec = nil, nil, nil
	r.mu.Unlock()
	obsShardAlive.Set(int64(alive))
	return err
}

// worker is the per-shard execution loop: drain the shard's own deque,
// then steal; park only when neither yields a task.
func (r *ShardRunner) worker(shard int, exec ShardExec) {
	for {
		r.mu.Lock()
		var p pendingTask
		for {
			if r.fatal != nil || r.remaining == 0 || r.dead[shard] {
				r.mu.Unlock()
				return
			}
			var ok bool
			if p, ok = r.dequeueLocked(shard); ok {
				break
			}
			// Wakeup protocol: the runner broadcasts on every enqueue, on
			// fatal error, and when remaining hits zero, and the loop
			// rechecks its exit predicate under r.mu before parking again.
			r.cond.Wait()
		}
		task := r.tasks[p.idx]
		r.mu.Unlock()

		obsShardExecs.Add(1)
		shardAtFault, err := attempt(exec, shard, task)
		if err == nil {
			err = validateOutput(task)
		}

		switch {
		case err == nil:
			r.mu.Lock()
			r.consec[shard] = 0
			r.remaining--
			if r.remaining == 0 {
				r.cond.Broadcast()
			}
			r.mu.Unlock()
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			r.mu.Lock()
			if r.fatal == nil {
				r.fatal = fmt.Errorf("batch: run stopped at task %d: %w", task.ID, err)
			}
			r.cond.Broadcast()
			r.mu.Unlock()
		default:
			r.onFailure(shard, p, err, shardAtFault)
		}
	}
}

// attempt executes one task once. A panic becomes the attempt's error,
// wrapped with %w when the value is an error so errors.Is still finds
// its cause (tlrio.ErrChecksum from a store-backed tile, say), and
// leaves shardAtFault false.
func attempt(exec ShardExec, shard int, task ShardTask) (shardAtFault bool, err error) {
	defer func() {
		if v := recover(); v != nil {
			if e, ok := v.(error); ok {
				err = fmt.Errorf("batch: task %d panicked: %w", task.ID, e)
			} else {
				err = fmt.Errorf("batch: task %d panicked: %v", task.ID, v)
			}
		}
	}()
	return true, exec(shard, task)
}

// dequeueLocked takes the next task for a shard: the newest entry of its
// own deque (LIFO — retries and fresh deals run hottest-first), else the
// oldest fresh entry of the most-loaded live peer (FIFO from the
// victim's cold end, the classic work-stealing split that minimizes
// contention with the owner), which bounds the tail when per-task work
// is skewed. Outputs are bitwise independent of which shard computes
// them, so stealing never changes results — only schedules. Two
// carve-outs keep the failure semantics intact under stealing: only
// fresh tasks (zero attempts) are stealable, so a retried task stays
// pinned to its shard and the consecutive-failure death policy observes
// the same executions it would without stealing; and a steal always
// leaves the victim at least one task, so a misbehaving shard cannot be
// drained by its peers before it ever executes (and earns its death).
func (r *ShardRunner) dequeueLocked(shard int) (pendingTask, bool) {
	if q := r.queues[shard]; len(q) > 0 {
		p := q[len(q)-1]
		r.queues[shard] = q[:len(q)-1]
		return p, true
	}
	// best counts only queues holding a stealable entry, so a long
	// all-retries queue never shadows a shorter stealable one.
	victim, vidx, best := -1, -1, 1
	for s := range r.queues {
		if s == shard || r.dead[s] || len(r.queues[s]) <= best {
			continue
		}
		for k := range r.queues[s] {
			if r.queues[s][k].attempts == 0 {
				victim, vidx, best = s, k, len(r.queues[s])
				break
			}
		}
	}
	if victim < 0 {
		return pendingTask{}, false
	}
	p := r.queues[victim][vidx]
	r.queues[victim] = append(r.queues[victim][:vidx], r.queues[victim][vidx+1:]...)
	obsShardSteals.Add(1)
	return p, true
}

// onFailure applies the retry / death / failover policy to one failed
// execution attempt; only a failure the shard is at fault for counts
// toward its death.
func (r *ShardRunner) onFailure(shard int, p pendingTask, err error, shardAtFault bool) {
	p.attempts++
	r.mu.Lock()
	if shardAtFault {
		r.consec[shard]++
	}
	if !r.dead[shard] && r.consec[shard] >= r.opts.DeathAfter {
		r.killLocked(shard)
	}
	if p.attempts >= r.opts.MaxAttempts {
		if r.fatal == nil {
			r.fatal = fmt.Errorf("batch: task %d failed after %d attempts: %w", r.tasks[p.idx].ID, p.attempts, err)
		}
		r.cond.Broadcast()
		r.mu.Unlock()
		return
	}
	deadHere := r.dead[shard]
	// Wake waiters now: killLocked may have re-queued orphans onto their
	// shards or set fatal, and the backoff below must not delay them.
	r.cond.Broadcast()
	r.mu.Unlock()

	// Exponential backoff outside the lock so other shards keep draining.
	delay := backoff << (p.attempts - 1)
	if delay > maxBackoff {
		delay = maxBackoff
	}
	r.opts.Sleep(delay)

	r.mu.Lock()
	if r.fatal == nil {
		if !deadHere && !r.dead[shard] {
			// Shard still trusted: retry in place.
			obsShardRetries.Add(1)
			r.queues[shard] = append(r.queues[shard], p)
		} else {
			// Orphaned by a death: fail over to a survivor.
			obsShardFailovers.Add(1)
			r.enqueueLocked(p)
		}
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// validateOutput treats NaN in either of a task's outputs as a shard
// fault: a corrupted result must trigger recomputation, not propagate
// into the solver. Self-comparison detects NaN without widening the
// components.
func validateOutput(t ShardTask) error {
	for k, y := range [...][]complex64{t.Y, t.Z} {
		for i, v := range y {
			re, im := real(v), imag(v)
			if re != re || im != im {
				return fmt.Errorf("batch: task %d produced NaN at %c[%d]", t.ID, "YZ"[k], i)
			}
		}
	}
	return nil
}
