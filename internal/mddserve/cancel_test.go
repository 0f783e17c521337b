// Cancellation tests for the server core: each point where a cancelled
// job or a departed client must stop waiting or stop working is driven
// with a cancelled context and a bounded wait, so a removed point fails
// its test by name within seconds.
package mddserve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/mdc"
	"repro/internal/obs"
	"repro/internal/testkit/suite"
)

// runningJob is a job record in the running state, as a worker holds it.
func runningJob(spec JobSpec) *job {
	applySpecDefaults(&spec)
	ctx, cancel := context.WithCancel(context.Background())
	return &job{id: "job-x", tenant: "t", spec: spec, ctx: ctx, cancel: cancel,
		state: StateRunning, notify: make(chan struct{})}
}

// cancelledJob is a job record whose context is already cancelled.
func cancelledJob(spec JobSpec) *job {
	j := runningJob(spec)
	j.cancel()
	return j
}

// plantUnready puts a computation for key into c that never finishes
// while the test runs, so only a waiter's context can end a wait on it.
func plantUnready[V any](c *memo[V], key string) {
	c.mu.Lock()
	c.m[key] = &flight[V]{done: make(chan struct{})}
	c.mu.Unlock()
}

// cancelWaiter submits spec, waits until its job runs, cancels it and
// requires it to end cancelled: the job is blocked in Server.built on
// an entry the caller planted, which only its context can release.
func cancelWaiter(t *testing.T, s *Server, spec JobSpec) {
	t.Helper()
	id, err := s.submit(spec, "t")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, func(st State) bool { return st == StateRunning })
	s.cancel(id)
	if st := waitTerminal(t, s, id); st.State != StateCancelled {
		t.Fatalf("cancelled waiter ended %s (%s), want cancelled", st.State, st.Error)
	}
}

// TestCancelWaiterOnUnreadyBuild: a job that finds its build in flight
// for another job waits for it, and stops waiting when it is cancelled.
func TestCancelWaiterOnUnreadyBuild(t *testing.T) {
	suite.VerifyNoLeaks(t)
	s := newServer(t, testConfig())
	spec := testSpec(JobCompress)
	key := spec
	applySpecDefaults(&key)
	plantUnready(s.builds, specKey(key))
	cancelWaiter(t, s, spec)
}

// TestCancelWaiterOnUnreadySurvey: the same at the survey level — a job
// that finds its dataset's survey being generated for another job waits
// for it, and stops waiting when it is cancelled.
func TestCancelWaiterOnUnreadySurvey(t *testing.T) {
	suite.VerifyNoLeaks(t)
	s := newServer(t, testConfig())
	spec := testSpec(JobMDD)
	plantUnready(s.surveys, surveyKey(spec.Dataset))
	cancelWaiter(t, s, spec)
}

// TestCancelStreamReleasesHandler: the events stream of a job that is
// still queued blocks for the next event, and returns once its client
// has gone, after writing the events it already had.
func TestCancelStreamReleasesHandler(t *testing.T) {
	suite.VerifyNoLeaks(t)
	s := newServer(t, testConfig())
	s.Pause()
	id, err := s.submit(testSpec(JobCompress), "t")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, "/api/v1/jobs/"+id+"/events", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	if !within(func() { s.Handler().ServeHTTP(rec, req) }) {
		t.Fatalf("events handler still blocked %v after its client went away", waitBound)
	}
	if got := rec.Body.String(); strings.Count(got, "\n") != 1 || !strings.Contains(got, string(StateQueued)) {
		t.Errorf("stream body %q, want the one queued event", got)
	}
}

// TestCancelDuringOwnBuildEndsCancelled: a build does not watch the job
// that started it, so a job cancelled during its own build is stopped
// right after it, before it computes a result.
func TestCancelDuringOwnBuildEndsCancelled(t *testing.T) {
	suite.VerifyNoLeaks(t)
	s := newServer(t, testConfig())
	res, err := s.execute(nil, cancelledJob(testSpec(JobCompress)))
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("execute of a cancelled job = %+v, %v; want context.Canceled and no result", res, err)
	}
}

// TestCancelStopsTLRMVMReps: a tlrmvm job checks its context before
// every product, so a cancelled one runs none of its reps.
func TestCancelStopsTLRMVMReps(t *testing.T) {
	suite.VerifyNoLeaks(t)
	s := newServer(t, testConfig())
	spec := testSpec(JobTLRMVM)
	spec.Reps = 1000
	j := cancelledJob(spec)
	b, err := s.built(context.Background(), j.spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runTLRMVM(j, b)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("runTLRMVM of a cancelled job = %+v, %v; want context.Canceled and no result", res, err)
	}
}

// countingKernel counts the per-frequency products run through it.
type countingKernel struct {
	mdc.Kernel
	calls atomic.Int64
}

func (k *countingKernel) Apply(f int, x, y []complex64) {
	k.calls.Add(1)
	k.Kernel.Apply(f, x, y)
}

func (k *countingKernel) ApplyAdjoint(f int, x, y []complex64) {
	k.calls.Add(1)
	k.Kernel.ApplyAdjoint(f, x, y)
}

// TestCancelAbortsShardTasks: once an mdd job is cancelled, every shard
// task of its operator refuses to run, and the runner takes the context
// error as final for the run — no retry, no backoff, no shard death —
// so the solve stops without a kernel product or a restart.
func TestCancelAbortsShardTasks(t *testing.T) {
	suite.VerifyNoLeaks(t)
	s := newServer(t, testConfig())
	j := cancelledJob(testSpec(JobMDD))
	b, err := s.built(context.Background(), j.spec)
	if err != nil {
		t.Fatal(err)
	}
	k := &countingKernel{Kernel: b.pipe.Problem.K}
	b.pipe.Problem.K = k
	runner, err := batch.NewShardRunner(batch.ShardOptions{Shards: 2, Sleep: func(time.Duration) {
		t.Error("a cancelled task backed off")
	}})
	if err != nil {
		t.Fatal(err)
	}
	obs.Enable()
	defer obs.Disable()
	begin := obs.TakeSnapshot()
	res, err := s.runMDD(runner, j, b, checkpointInterval)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("runMDD of a cancelled job = %+v, %v; want context.Canceled and no result", res, err)
	}
	if n := k.calls.Load(); n != 0 {
		t.Errorf("a cancelled solve ran %d kernel products", n)
	}
	end := obs.TakeSnapshot()
	for _, name := range []string{"batch.shard.retries", "batch.shard.failovers", "batch.shard.deaths", "mdd.resilient.restarts"} {
		if d := end.Counter(name) - begin.Counter(name); d != 0 {
			t.Errorf("%s rose by %d for a cancelled solve, want 0", name, d)
		}
	}
	if runner.Alive() != 2 {
		t.Errorf("%d of 2 shards alive after a cancelled solve", runner.Alive())
	}
}
