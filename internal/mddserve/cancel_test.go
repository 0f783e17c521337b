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
	"testing"

	"repro/internal/testkit/suite"
)

// cancelledJob is a job record whose context is already cancelled.
func cancelledJob(spec JobSpec) *job {
	applySpecDefaults(&spec)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return &job{id: "job-x", tenant: "t", spec: spec, ctx: ctx, cancel: cancel,
		state: StateRunning, notify: make(chan struct{})}
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

// countingOp is a FallibleOperator that counts the products it is asked
// for.
type countingOp struct{ calls int }

func (o *countingOp) Rows() int                           { return 1 }
func (o *countingOp) Cols() int                           { return 1 }
func (o *countingOp) Apply(_, _ []complex64) error        { o.calls++; return nil }
func (o *countingOp) ApplyAdjoint(_, _ []complex64) error { o.calls++; return nil }

// TestCancelAbortsOperatorProducts: once an mdd job is cancelled, both
// directions of its operator refuse the next product, so the solve
// stops within one operator call whichever comes next.
func TestCancelAbortsOperatorProducts(t *testing.T) {
	j := cancelledJob(testSpec(JobMDD))
	for _, dir := range []string{"Apply", "ApplyAdjoint"} {
		inner := &countingOp{}
		op := &ctxOperator{ctx: j.ctx, op: inner}
		product := op.Apply
		if dir == "ApplyAdjoint" {
			product = op.ApplyAdjoint
		}
		if err := product(nil, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("%s after cancel: %v, want context.Canceled", dir, err)
		}
		if inner.calls != 0 {
			t.Errorf("%s after cancel ran %d product(s) on the wrapped operator", dir, inner.calls)
		}
	}
}
