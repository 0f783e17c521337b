// Serving-layer integration suite: a live in-process mddserve instance
// on 127.0.0.1:0 driven end-to-end through the typed mddclient SDK —
// submit/poll/stream/cancel, the error paths, 429 backpressure with
// client retry, and chaos-over-HTTP where an injected fault schedule
// behind the serving path must not move client-visible results by more
// than 1e-5 from a fault-free server.
package repro

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/mddclient"
	"repro/internal/mddserve"
	"repro/internal/testkit"
	"repro/internal/testkit/suite"
)

// serveDataset is the smallest structurally valid survey: builds in
// milliseconds, so every per-test server can afford a cold cache.
func serveDataset() mddserve.DatasetSpec {
	return mddserve.DatasetSpec{NsX: 4, NsY: 3, NrX: 3, NrY: 3, Nt: 32}
}

// serveStack is one live server plus a client bound to it.
type serveStack struct {
	server *mddserve.Server
	web    *httptest.Server
	client *mddclient.Client
}

// ServeSuite is the integration suite; each test builds the stacks it
// needs via newStack and the suite tears them down.
type ServeSuite struct {
	suite.Suite
	stacks []*serveStack
}

func TestServeSuite(t *testing.T) {
	suite.Run(t, new(ServeSuite))
}

// newStack starts a server with the config (backoff sleeps stubbed out
// so shard retries never stall the suite) behind a 127.0.0.1:0
// listener, plus a default client.
func (s *ServeSuite) newStack(cfg mddserve.Config) *serveStack {
	if cfg.BackoffSleep == nil {
		cfg.BackoffSleep = func(time.Duration) {}
	}
	srv := mddserve.New(cfg)
	web := httptest.NewServer(srv.Handler())
	st := &serveStack{
		server: srv,
		web:    web,
		client: mddclient.New(web.URL, mddclient.Options{Tenant: "suite"}),
	}
	s.stacks = append(s.stacks, st)
	return st
}

// SetupTest arms the goroutine-baseline check: after TearDownTest has
// closed every stack, the workers, shard runners, stream handlers and
// connection loops the test started must all be gone.
func (s *ServeSuite) SetupTest() { suite.VerifyNoLeaks(s.T()) }

// TearDownTest drains every stack the test started. Server first so
// queued jobs drain, then the listener.
func (s *ServeSuite) TearDownTest() {
	for _, st := range s.stacks {
		st.server.Resume()
		st.server.Close()
		st.web.Close()
	}
	s.stacks = nil
}

func (s *ServeSuite) ctx() context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	s.T().Cleanup(cancel)
	return ctx
}

func (s *ServeSuite) TestCompressSubmitAndPoll() {
	st := s.newStack(mddserve.Config{})
	req := s.Require()

	id, err := st.client.Submit(s.ctx(), mddserve.JobSpec{
		Type: mddserve.JobCompress, Dataset: serveDataset(),
	})
	req.NoError(err)
	req.NotEmpty(id)

	status, err := st.client.Wait(s.ctx(), id)
	req.NoError(err)
	req.Equal(mddserve.StateDone, status.State)
	req.NotNil(status.Result)
	req.Greater(status.Result.CompressionRatio, 0.0)
	req.Greater(status.Result.DenseBytes, int64(0))
	req.Greater(status.Result.CompressedBytes, int64(0))
	req.Empty(status.Error)
}

func (s *ServeSuite) TestTLRMVMIsDeterministic() {
	st := s.newStack(mddserve.Config{})
	req := s.Require()

	run := func(seed int64) float64 {
		status, err := st.client.Run(s.ctx(), mddserve.JobSpec{
			Type: mddserve.JobTLRMVM, Dataset: serveDataset(), Reps: 3, Seed: seed,
		})
		req.NoError(err)
		req.Equal(mddserve.StateDone, status.State)
		req.NotNil(status.Result)
		return status.Result.YNorm
	}
	first := run(7)
	req.Greater(first, 0.0)
	req.Equal(first, run(7), "same seed must reproduce the same checksum")
	req.NotEqual(first, run(8), "different seeds must differ")
}

func (s *ServeSuite) TestMDDStreamsResiduals() {
	st := s.newStack(mddserve.Config{})
	req := s.Require()

	id, err := st.client.Submit(s.ctx(), mddserve.JobSpec{
		Type: mddserve.JobMDD, Dataset: serveDataset(), Iters: 6, VS: 2,
	})
	req.NoError(err)

	var events []mddserve.Event
	err = st.client.Stream(s.ctx(), id, 0, func(ev mddserve.Event) error {
		events = append(events, ev)
		return nil
	})
	req.NoError(err)
	req.NotEmpty(events)

	// Sequence numbers are dense and ordered; the stream begins with the
	// queued state and ends with the terminal state.
	for i, ev := range events {
		req.Equal(i, ev.Seq)
	}
	req.Equal(mddserve.EventState, events[0].Kind)
	req.Equal(mddserve.StateQueued, events[0].State)
	last := events[len(events)-1]
	req.Equal(mddserve.EventState, last.Kind)
	req.Equal(mddserve.StateDone, last.State)

	var residuals int
	for _, ev := range events {
		if ev.Kind == mddserve.EventResidual {
			residuals++
			req.Greater(ev.Residual, 0.0)
		}
	}
	status, err := st.client.Status(s.ctx(), id)
	req.NoError(err)
	// One residual event per iteration, except that a converged final
	// iteration breaks out of the solver before its checkpoint fires.
	want := status.Result.Iterations
	if status.Result.Converged {
		want--
	}
	req.Equal(want, residuals, "one residual event per checkpointed iteration")
	req.Equal(len(events), status.Events)
}

func (s *ServeSuite) TestStreamResumesFromSequence() {
	st := s.newStack(mddserve.Config{})
	req := s.Require()

	status, err := st.client.Run(s.ctx(), mddserve.JobSpec{
		Type: mddserve.JobMDD, Dataset: serveDataset(), Iters: 4, VS: 0,
	})
	req.NoError(err)
	req.Equal(mddserve.StateDone, status.State)
	req.GreaterOrEqual(status.Events, 4)

	from := 2
	var events []mddserve.Event
	req.NoError(st.client.Stream(s.ctx(), status.ID, from, func(ev mddserve.Event) error {
		events = append(events, ev)
		return nil
	}))
	req.Len(events, status.Events-from)
	req.Equal(from, events[0].Seq)
	req.Equal(mddserve.StateDone, events[len(events)-1].State)
}

func (s *ServeSuite) TestCancelQueuedJob() {
	st := s.newStack(mddserve.Config{Workers: 1})
	req := s.Require()

	st.server.Pause()
	id, err := st.client.Submit(s.ctx(), mddserve.JobSpec{
		Type: mddserve.JobCompress, Dataset: serveDataset(),
	})
	req.NoError(err)

	status, err := st.client.Cancel(s.ctx(), id)
	req.NoError(err)
	req.Equal(mddserve.StateCancelled, status.State)
	st.server.Resume()

	// The worker must skip the cancelled job and stay healthy for the
	// next one.
	after, err := st.client.Run(s.ctx(), mddserve.JobSpec{
		Type: mddserve.JobCompress, Dataset: serveDataset(),
	})
	req.NoError(err)
	req.Equal(mddserve.StateDone, after.State)

	stats, err := st.client.ServerStats(s.ctx())
	req.NoError(err)
	req.Equal(int64(1), stats.Cancelled)
	req.Equal(int64(1), stats.Completed)
}

func (s *ServeSuite) TestCancelRunningJob() {
	// An op-latency fault whose sleep hook blocks turns "cancel while
	// running" into a deterministic interleaving: the solve parks inside
	// its first operator product, the test cancels, then releases it.
	running := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	sched, err := fault.Parse("op:latency@1")
	s.Require().NoError(err)
	st := s.newStack(mddserve.Config{
		Workers: 1,
		Faults:  sched,
		FaultSleep: func(time.Duration) {
			once.Do(func() { close(running) })
			<-release
		},
	})
	defer close(release)
	req := s.Require()

	id, err := st.client.Submit(s.ctx(), mddserve.JobSpec{
		Type: mddserve.JobMDD, Dataset: serveDataset(), Iters: 20, VS: 1,
	})
	req.NoError(err)
	<-running

	status, err := st.client.Cancel(s.ctx(), id)
	req.NoError(err)
	req.Equal(mddserve.StateRunning, status.State,
		"cancel of a running job is asynchronous: the solve aborts at its next product")
	once.Do(func() {}) // already fired
	release <- struct{}{}

	final, err := st.client.Wait(s.ctx(), id)
	req.NoError(err)
	req.Equal(mddserve.StateCancelled, final.State)
	req.Nil(final.Result)
}

func (s *ServeSuite) TestBadPayloadRejects() {
	st := s.newStack(mddserve.Config{})
	req := s.Require()

	post := func(body string) (int, string) {
		resp, err := http.Post(st.web.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		req.NoError(err)
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		req.NoError(err)
		return resp.StatusCode, string(b)
	}

	code, body := post("{not json")
	req.Equal(http.StatusBadRequest, code)
	req.Contains(body, mddserve.CodeBadRequest)

	code, body = post(`{"type":"compress","dataset":{"nsx":4,"nsy":3,"nrx":3,"nry":3,"nt":32},"bogus":1}`)
	req.Equal(http.StatusBadRequest, code, "unknown fields must reject, not silently drop")
	req.Contains(body, "bogus")

	// Structural validation through the typed client: bad type and
	// non-power-of-two nt are terminal, not retryable.
	_, err := st.client.Submit(s.ctx(), mddserve.JobSpec{Type: "explode", Dataset: serveDataset()})
	var apiErr *mddclient.APIError
	req.ErrorAs(err, &apiErr)
	req.Equal(http.StatusBadRequest, apiErr.StatusCode)
	req.Equal(mddserve.CodeBadRequest, apiErr.Code)
	req.False(apiErr.Retryable())

	d := serveDataset()
	d.Nt = 48
	_, err = st.client.Submit(s.ctx(), mddserve.JobSpec{Type: mddserve.JobCompress, Dataset: d})
	req.ErrorAs(err, &apiErr)
	req.Equal(mddserve.CodeBadRequest, apiErr.Code)
	req.ErrorContains(err, "power of two")
}

func (s *ServeSuite) TestOversizedJobRejects() {
	st := s.newStack(mddserve.Config{MaxNt: 64, MaxIters: 10})
	req := s.Require()

	d := serveDataset()
	d.Nt = 128 // structurally valid, over this server's cap
	_, err := st.client.Submit(s.ctx(), mddserve.JobSpec{Type: mddserve.JobCompress, Dataset: d})
	var apiErr *mddclient.APIError
	req.ErrorAs(err, &apiErr)
	req.Equal(http.StatusRequestEntityTooLarge, apiErr.StatusCode)
	req.Equal(mddserve.CodeTooLarge, apiErr.Code)
	req.False(apiErr.Retryable())

	_, err = st.client.Submit(s.ctx(), mddserve.JobSpec{
		Type: mddserve.JobMDD, Dataset: serveDataset(), Iters: 50,
	})
	req.ErrorAs(err, &apiErr)
	req.Equal(mddserve.CodeTooLarge, apiErr.Code)
}

func (s *ServeSuite) TestUnknownJobIs404() {
	st := s.newStack(mddserve.Config{})
	req := s.Require()

	var apiErr *mddclient.APIError
	_, err := st.client.Status(s.ctx(), "job-999")
	req.ErrorAs(err, &apiErr)
	req.Equal(http.StatusNotFound, apiErr.StatusCode)
	req.Equal(mddserve.CodeNotFound, apiErr.Code)

	_, err = st.client.Cancel(s.ctx(), "job-999")
	req.ErrorAs(err, &apiErr)
	req.Equal(http.StatusNotFound, apiErr.StatusCode)

	err = st.client.Stream(s.ctx(), "job-999", 0, func(mddserve.Event) error { return nil })
	req.ErrorAs(err, &apiErr)
	req.Equal(http.StatusNotFound, apiErr.StatusCode)
}

func (s *ServeSuite) TestQueueFullBackpressureAndClientRetry() {
	st := s.newStack(mddserve.Config{Workers: 1, QueueSize: 3, PerTenantInflight: 100})
	req := s.Require()

	// Park the worker so admission is exactly deterministic, then fill
	// the queue.
	st.server.Pause()
	ids := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		id, err := st.client.Submit(s.ctx(), mddserve.JobSpec{
			Type: mddserve.JobCompress, Dataset: serveDataset(),
		})
		req.NoError(err)
		ids = append(ids, id)
	}

	// A non-retrying client sees the raw 429.
	noRetry := mddclient.New(st.web.URL, mddclient.Options{Tenant: "suite", MaxAttempts: 1})
	_, err := noRetry.Submit(s.ctx(), mddserve.JobSpec{
		Type: mddserve.JobCompress, Dataset: serveDataset(),
	})
	var apiErr *mddclient.APIError
	req.ErrorAs(err, &apiErr)
	req.Equal(http.StatusTooManyRequests, apiErr.StatusCode)
	req.Equal(mddserve.CodeQueueFull, apiErr.Code)
	req.True(apiErr.Retryable())

	stats, err := st.client.ServerStats(s.ctx())
	req.NoError(err)
	req.Equal(int64(1), stats.RejectsQueue)
	req.Equal(3, stats.QueueDepth)

	// A retrying client's first backoff resumes the server; the worker
	// drains a slot and the retry lands.
	var resume sync.Once
	retrying := mddclient.New(st.web.URL, mddclient.Options{
		Tenant:      "suite",
		MaxAttempts: 10,
		Sleep: func(time.Duration) {
			resume.Do(st.server.Resume)
			time.Sleep(10 * time.Millisecond)
		},
	})
	id, err := retrying.Submit(s.ctx(), mddserve.JobSpec{
		Type: mddserve.JobCompress, Dataset: serveDataset(),
	})
	req.NoError(err, "retry-after-429 must eventually admit once the queue drains")
	ids = append(ids, id)

	for _, id := range ids {
		status, err := st.client.Wait(s.ctx(), id)
		req.NoError(err)
		req.Equal(mddserve.StateDone, status.State)
	}
	stats, err = st.client.ServerStats(s.ctx())
	req.NoError(err)
	req.Equal(int64(4), stats.Completed)
	req.GreaterOrEqual(stats.RejectsQueue, int64(1))
}

func (s *ServeSuite) TestPerTenantLimit() {
	st := s.newStack(mddserve.Config{Workers: 1, QueueSize: 16, PerTenantInflight: 2})
	req := s.Require()
	alice := mddclient.New(st.web.URL, mddclient.Options{Tenant: "alice", MaxAttempts: 1})
	bob := mddclient.New(st.web.URL, mddclient.Options{Tenant: "bob", MaxAttempts: 1})
	spec := mddserve.JobSpec{Type: mddserve.JobCompress, Dataset: serveDataset()}

	st.server.Pause()
	var ids []string
	for i := 0; i < 2; i++ {
		id, err := alice.Submit(s.ctx(), spec)
		req.NoError(err)
		ids = append(ids, id)
	}
	_, err := alice.Submit(s.ctx(), spec)
	var apiErr *mddclient.APIError
	req.ErrorAs(err, &apiErr)
	req.Equal(http.StatusTooManyRequests, apiErr.StatusCode)
	req.Equal(mddserve.CodeTenantLimit, apiErr.Code)

	// Another tenant is unaffected by alice's limit.
	id, err := bob.Submit(s.ctx(), spec)
	req.NoError(err)
	ids = append(ids, id)

	st.server.Resume()
	for _, id := range ids {
		status, err := st.client.Wait(s.ctx(), id)
		req.NoError(err)
		req.Equal(mddserve.StateDone, status.State)
	}
	stats, err := st.client.ServerStats(s.ctx())
	req.NoError(err)
	req.Equal(int64(1), stats.RejectsTenant)
	req.Equal(2, stats.PeakInflight["alice"])
	req.Equal(1, stats.PeakInflight["bob"])
}

// TestChaosOverHTTP runs the same inversion against a fault-free server
// and one whose serving path injects shard deaths, a transient shard
// error, and a whole-product failure. Re-sharding and checkpoint resume
// are bitwise neutral, so the client-visible solutions must agree to
// 1e-5 (the repo-wide chaos tolerance).
func (s *ServeSuite) TestChaosOverHTTP() {
	req := s.Require()
	sched, err := fault.Parse("shard2:die@3,shard5:die@5,shard1:err@2,op:err@8")
	req.NoError(err)

	clean := s.newStack(mddserve.Config{Workers: 1, Shards: 8})
	chaotic := s.newStack(mddserve.Config{
		Workers: 1, Shards: 8,
		Faults:     sched,
		FaultSleep: func(time.Duration) {},
	})

	spec := mddserve.JobSpec{
		Type: mddserve.JobMDD, Dataset: serveDataset(),
		Iters: 8, VS: 3, ReturnSolution: true,
	}
	ref, err := clean.client.Run(s.ctx(), spec)
	req.NoError(err)
	req.Equal(mddserve.StateDone, ref.State)

	got, err := chaotic.client.Run(s.ctx(), spec)
	req.NoError(err, "the resilient stack must absorb the whole schedule")
	req.Equal(mddserve.StateDone, got.State)
	req.Greater(got.Result.Restarts, 0, "op:err@8 must force a solver restart")
	req.Greater(got.Result.SalvagedIters, 0, "the restart must resume from a checkpoint")
	req.Equal(ref.Result.Iterations, got.Result.Iterations)

	rel := testkit.RelErr(solutionVec(s.T(), got.Result), solutionVec(s.T(), ref.Result))
	req.LessOrEqual(rel, 1e-5,
		"faulted serving path deviates from fault-free: relErr %.3g", rel)
}

// solutionVec rebuilds the complex solution from its interleaved wire
// encoding.
func solutionVec(t *testing.T, r *mddserve.JobResult) []complex64 {
	t.Helper()
	if r == nil || len(r.Solution)%2 != 0 {
		t.Fatal("result carries no interleaved solution")
	}
	out := make([]complex64, len(r.Solution)/2)
	for i := range out {
		out[i] = complex(r.Solution[2*i], r.Solution[2*i+1])
	}
	return out
}

func (s *ServeSuite) TestHealthStatsAndMetrics() {
	st := s.newStack(mddserve.Config{})
	req := s.Require()
	req.NoError(st.client.Health(s.ctx()))

	// The metrics endpoint mirrors the obs registry; collection is
	// global, so only assert deltas caused by this stack's job.
	status, err := st.client.Run(s.ctx(), mddserve.JobSpec{
		Type: mddserve.JobCompress, Dataset: serveDataset(),
	})
	req.NoError(err)
	req.Equal(mddserve.StateDone, status.State)

	stats, err := st.client.ServerStats(s.ctx())
	req.NoError(err)
	req.Equal(int64(1), stats.Submitted)
	req.Equal(int64(1), stats.Completed)
	req.Equal(0, stats.QueueDepth)

	snap, err := st.client.Metrics(s.ctx())
	req.NoError(err)
	req.NotNil(snap)
}
