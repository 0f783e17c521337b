// Serving-layer integration suite: a live in-process mddserve instance
// on 127.0.0.1:0 driven end-to-end through the typed mddclient SDK —
// submit/poll/stream/cancel, the error paths, 429 backpressure with
// client retry, and chaos-over-HTTP where an injected fault schedule
// behind the serving path must not move client-visible results by more
// than 1e-5 from a fault-free server.
package repro

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cfloat"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mddclient"
	"repro/internal/mddserve"
	"repro/internal/seismic"
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

// TestServeSuite runs each case as a subtest. Every case first arms the
// goroutine-baseline check: cleanups run last-in-first-out, so it looks
// after every stack the case started has closed, and the workers, shard
// runners, stream handlers and connection loops must all be gone.
func TestServeSuite(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"TestBadPayloadRejects", testBadPayloadRejects},
		{"TestCancelQueuedJob", testCancelQueuedJob},
		{"TestCancelRunningJob", testCancelRunningJob},
		{"TestChaosOverHTTP", testChaosOverHTTP},
		{"TestCompressSubmitAndPoll", testCompressSubmitAndPoll},
		{"TestHealthStatsAndMetrics", testHealthStatsAndMetrics},
		{"TestMDDStreamsResiduals", testMDDStreamsResiduals},
		{"TestOversizedJobRejects", testOversizedJobRejects},
		{"TestPerTenantLimit", testPerTenantLimit},
		{"TestQueueFullBackpressureAndClientRetry", testQueueFullBackpressureAndClientRetry},
		{"TestStreamRejectsBadFrom", testStreamRejectsBadFrom},
		{"TestStreamResumesFromSequence", testStreamResumesFromSequence},
		{"TestTLRMVMIsDeterministic", testTLRMVMIsDeterministic},
		{"TestUnknownJobIs404", testUnknownJobIs404},
	} {
		t.Run(tc.name, func(t *testing.T) {
			suite.VerifyNoLeaks(t)
			tc.run(t)
		})
	}
}

// newStack starts a server with the config (backoff sleeps stubbed out
// so shard retries never stall the suite) behind a 127.0.0.1:0
// listener, plus a default client. When the test ends the server drains
// first, so queued jobs finish, then the listener closes.
func newStack(t *testing.T, cfg mddserve.Config) *serveStack {
	t.Helper()
	if cfg.BackoffSleep == nil {
		cfg.BackoffSleep = func(time.Duration) {}
	}
	srv := mddserve.New(cfg)
	web := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Resume()
		srv.Close()
		web.Close()
	})
	return &serveStack{
		server: srv,
		web:    web,
		client: mddclient.New(web.URL, mddclient.Options{Tenant: "suite"}),
	}
}

func ctx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// wantState fails the test unless the call that returned status
// succeeded and left the job in state want.
func wantState(t *testing.T, status *mddserve.JobStatus, err error, want mddserve.State) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if status.State != want {
		t.Fatalf("job %s is %s, want %s", status.ID, status.State, want)
	}
}

// wantAPIError fails the test unless err is an *mddclient.APIError with
// the given HTTP status and error code, and returns it.
func wantAPIError(t *testing.T, err error, status int, code string) *mddclient.APIError {
	t.Helper()
	var apiErr *mddclient.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v is not an *mddclient.APIError", err)
	}
	if apiErr.StatusCode != status || apiErr.Code != code {
		t.Fatalf("got %d %s, want %d %s", apiErr.StatusCode, apiErr.Code, status, code)
	}
	return apiErr
}

func testCompressSubmitAndPoll(t *testing.T) {
	st := newStack(t, mddserve.Config{})

	id, err := st.client.Submit(ctx(t), mddserve.JobSpec{
		Type: mddserve.JobCompress, Dataset: serveDataset(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("submit returned an empty job id")
	}

	status, err := st.client.Wait(ctx(t), id)
	wantState(t, status, err, mddserve.StateDone)
	r := status.Result
	if r == nil {
		t.Fatal("done job carries no result")
	}
	if !(r.CompressionRatio > 0) || r.DenseBytes <= 0 || r.CompressedBytes <= 0 {
		t.Fatalf("compression ratio %v, dense %d B, compressed %d B: all must be positive",
			r.CompressionRatio, r.DenseBytes, r.CompressedBytes)
	}
	if status.Error != "" {
		t.Fatalf("done job carries error %q", status.Error)
	}
}

func testTLRMVMIsDeterministic(t *testing.T) {
	st := newStack(t, mddserve.Config{})

	run := func(seed int64) float64 {
		status, err := st.client.Run(ctx(t), mddserve.JobSpec{
			Type: mddserve.JobTLRMVM, Dataset: serveDataset(), Reps: 3, Seed: seed,
		})
		wantState(t, status, err, mddserve.StateDone)
		if status.Result == nil {
			t.Fatal("done job carries no result")
		}
		return status.Result.YNorm
	}
	first := run(7)
	if !(first > 0) {
		t.Fatalf("checksum %v, want > 0", first)
	}
	if again := run(7); again != first {
		t.Fatalf("same seed must reproduce the same checksum: %v, then %v", first, again)
	}
	if other := run(8); other == first {
		t.Fatalf("different seeds must differ: both %v", first)
	}

	// The job is MulVec on the build's mid-band slice over the API's
	// seeded input, so its checksum is the in-process product's norm to
	// the last bit.
	d := serveDataset()
	sv, err := core.NewSurvey(seismic.Options{
		Geom: seismic.Geometry{NsX: d.NsX, NsY: d.NsY, NrX: d.NrX, NrY: d.NrY,
			Dx: 20, Dy: 20, SrcDepth: 10, RecDepth: 300},
		Nt: d.Nt, Dt: 0.004,
	})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := sv.Build(core.PipelineOptions{TileSize: 8, Accuracy: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	slice := pipe.Kernel.Mats[pipe.DS.NumFreqs()/2]
	rng := rand.New(rand.NewSource(7 + 1))
	x := make([]complex64, slice.N)
	for i := range x {
		x[i] = complex(rng.Float32()-0.5, rng.Float32()-0.5)
	}
	y := make([]complex64, slice.M)
	slice.MulVec(x, y)
	if want := cfloat.Nrm2(y); first != want {
		t.Fatalf("served checksum %v, want ‖MulVec(x)‖ = %v", first, want)
	}
}

func testMDDStreamsResiduals(t *testing.T) {
	st := newStack(t, mddserve.Config{})

	id, err := st.client.Submit(ctx(t), mddserve.JobSpec{
		Type: mddserve.JobMDD, Dataset: serveDataset(), Iters: 6, VS: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	var events []mddserve.Event
	err = st.client.Stream(ctx(t), id, 0, func(ev mddserve.Event) error {
		events = append(events, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("stream carried no events")
	}

	// Sequence numbers are dense and ordered; the stream begins with the
	// queued state and ends with the terminal state.
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	first, last := events[0], events[len(events)-1]
	if first.Kind != mddserve.EventState || first.State != mddserve.StateQueued {
		t.Fatalf("first event is %s %s, want %s %s", first.Kind, first.State, mddserve.EventState, mddserve.StateQueued)
	}
	if last.Kind != mddserve.EventState || last.State != mddserve.StateDone {
		t.Fatalf("last event is %s %s, want %s %s", last.Kind, last.State, mddserve.EventState, mddserve.StateDone)
	}

	var residuals int
	for _, ev := range events {
		if ev.Kind == mddserve.EventResidual {
			residuals++
			if !(ev.Residual > 0) {
				t.Fatalf("event %d: residual %v, want > 0", ev.Seq, ev.Residual)
			}
		}
	}
	status, err := st.client.Status(ctx(t), id)
	if err != nil {
		t.Fatal(err)
	}
	// One residual event per iteration, except that a converged final
	// iteration breaks out of the solver before its checkpoint fires.
	want := status.Result.Iterations
	if status.Result.Converged {
		want--
	}
	if residuals != want {
		t.Fatalf("one residual event per checkpointed iteration: %d events, want %d", residuals, want)
	}
	if status.Events != len(events) {
		t.Fatalf("status counts %d events, the stream carried %d", status.Events, len(events))
	}
}

func testStreamResumesFromSequence(t *testing.T) {
	st := newStack(t, mddserve.Config{})

	status, err := st.client.Run(ctx(t), mddserve.JobSpec{
		Type: mddserve.JobMDD, Dataset: serveDataset(), Iters: 4, VS: 0,
	})
	wantState(t, status, err, mddserve.StateDone)
	if status.Events < 4 {
		t.Fatalf("%d events, want at least 4", status.Events)
	}

	from := 2
	var events []mddserve.Event
	err = st.client.Stream(ctx(t), status.ID, from, func(ev mddserve.Event) error {
		events = append(events, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != status.Events-from {
		t.Fatalf("stream from %d carried %d events, want %d", from, len(events), status.Events-from)
	}
	if events[0].Seq != from {
		t.Fatalf("stream from %d starts at seq %d", from, events[0].Seq)
	}
	if last := events[len(events)-1]; last.State != mddserve.StateDone {
		t.Fatalf("last event state %s, want %s", last.State, mddserve.StateDone)
	}
}

func testCancelQueuedJob(t *testing.T) {
	st := newStack(t, mddserve.Config{Workers: 1})

	st.server.Pause()
	id, err := st.client.Submit(ctx(t), mddserve.JobSpec{
		Type: mddserve.JobCompress, Dataset: serveDataset(),
	})
	if err != nil {
		t.Fatal(err)
	}

	status, err := st.client.Cancel(ctx(t), id)
	wantState(t, status, err, mddserve.StateCancelled)
	st.server.Resume()

	// The worker must skip the cancelled job and stay healthy for the
	// next one.
	after, err := st.client.Run(ctx(t), mddserve.JobSpec{
		Type: mddserve.JobCompress, Dataset: serveDataset(),
	})
	wantState(t, after, err, mddserve.StateDone)

	stats, err := st.client.ServerStats(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cancelled != 1 || stats.Completed != 1 {
		t.Fatalf("%d cancelled, %d completed; want 1 and 1", stats.Cancelled, stats.Completed)
	}
}

func testCancelRunningJob(t *testing.T) {
	// An op-latency fault whose sleep hook blocks turns "cancel while
	// running" into a deterministic interleaving: the solve parks inside
	// its first operator product, the test cancels, then releases it.
	running := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	sched, err := fault.Parse("op:latency@1")
	if err != nil {
		t.Fatal(err)
	}
	st := newStack(t, mddserve.Config{
		Workers: 1,
		Faults:  sched,
		FaultSleep: func(time.Duration) {
			once.Do(func() { close(running) })
			<-release
		},
	})
	defer close(release)

	id, err := st.client.Submit(ctx(t), mddserve.JobSpec{
		Type: mddserve.JobMDD, Dataset: serveDataset(), Iters: 20, VS: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-running

	status, err := st.client.Cancel(ctx(t), id)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != mddserve.StateRunning {
		t.Fatalf("cancel of a running job is asynchronous: the solve aborts at its next product; state %s, want %s",
			status.State, mddserve.StateRunning)
	}
	once.Do(func() {}) // already fired
	release <- struct{}{}

	final, err := st.client.Wait(ctx(t), id)
	wantState(t, final, err, mddserve.StateCancelled)
	if final.Result != nil {
		t.Fatalf("cancelled job carries result %+v", final.Result)
	}
}

func testBadPayloadRejects(t *testing.T) {
	st := newStack(t, mddserve.Config{})

	post := func(body string) (int, string) {
		resp, err := http.Post(st.web.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	code, body := post("{not json")
	if code != http.StatusBadRequest || !strings.Contains(body, mddserve.CodeBadRequest) {
		t.Fatalf("malformed JSON: %d %s, want %d %s", code, body, http.StatusBadRequest, mddserve.CodeBadRequest)
	}

	code, body = post(`{"type":"compress","dataset":{"nsx":4,"nsy":3,"nrx":3,"nry":3,"nt":32},"bogus":1}`)
	if code != http.StatusBadRequest || !strings.Contains(body, "bogus") {
		t.Fatalf("unknown fields must reject, not silently drop: %d %s", code, body)
	}

	// Structural validation through the typed client: bad type and
	// non-power-of-two nt are terminal, not retryable.
	_, err := st.client.Submit(ctx(t), mddserve.JobSpec{Type: "explode", Dataset: serveDataset()})
	if wantAPIError(t, err, http.StatusBadRequest, mddserve.CodeBadRequest).Retryable() {
		t.Fatal("a bad job type must not be retryable")
	}

	d := serveDataset()
	d.Nt = 48
	_, err = st.client.Submit(ctx(t), mddserve.JobSpec{Type: mddserve.JobCompress, Dataset: d})
	wantAPIError(t, err, http.StatusBadRequest, mddserve.CodeBadRequest)
	if !strings.Contains(err.Error(), "power of two") {
		t.Fatalf("error %q does not say \"power of two\"", err)
	}
}

func testOversizedJobRejects(t *testing.T) {
	st := newStack(t, mddserve.Config{MaxNt: 64})

	d := serveDataset()
	d.Nt = 128 // structurally valid, over this server's cap
	_, err := st.client.Submit(ctx(t), mddserve.JobSpec{Type: mddserve.JobCompress, Dataset: d})
	if wantAPIError(t, err, http.StatusRequestEntityTooLarge, mddserve.CodeTooLarge).Retryable() {
		t.Fatal("an oversized job must not be retryable")
	}

	_, err = st.client.Submit(ctx(t), mddserve.JobSpec{
		Type: mddserve.JobMDD, Dataset: serveDataset(), Iters: 501, // one past the 500-iteration cap
	})
	wantAPIError(t, err, http.StatusRequestEntityTooLarge, mddserve.CodeTooLarge)

	// 2³²+1 × 2³²−1 sources wraps int to −1: the spec is too large, is
	// never queued, and the server goes on serving. Admitted, it would
	// reach the worker and panic the process.
	st.server.Pause()
	before, err := st.client.ServerStats(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(st.web.URL+"/api/v1/jobs", "application/json", strings.NewReader(
		`{"type":"compress","dataset":{"nsx":4294967297,"nsy":4294967295,"nrx":4,"nry":4,"nt":16}}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), mddserve.CodeTooLarge) {
		t.Fatalf("wrapping source grid: %d %s, want %d %s",
			resp.StatusCode, body, http.StatusRequestEntityTooLarge, mddserve.CodeTooLarge)
	}
	after, err := st.client.ServerStats(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if after.QueueDepth != before.QueueDepth || after.Submitted != before.Submitted {
		t.Fatalf("rejected spec moved the queue: depth %d → %d, submitted %d → %d",
			before.QueueDepth, after.QueueDepth, before.Submitted, after.Submitted)
	}
	st.server.Resume()

	status, err := st.client.Run(ctx(t), mddserve.JobSpec{Type: mddserve.JobCompress, Dataset: serveDataset()})
	wantState(t, status, err, mddserve.StateDone)
}

// testStreamRejectsBadFrom sends the ?from= values the typed client
// never does. Negative, non-numeric and out-of-range values are 400
// bad_request; a from past the last event of a finished job is an
// empty 200 stream.
func testStreamRejectsBadFrom(t *testing.T) {
	st := newStack(t, mddserve.Config{})

	status, err := st.client.Run(ctx(t), mddserve.JobSpec{Type: mddserve.JobCompress, Dataset: serveDataset()})
	wantState(t, status, err, mddserve.StateDone)

	get := func(from string) (int, string) {
		resp, err := http.Get(st.web.URL + "/api/v1/jobs/" + status.ID + "/events?from=" + from)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}
	for _, from := range []string{"-1", "abc", "99999999999999999999"} {
		if code, body := get(from); code != http.StatusBadRequest || !strings.Contains(body, mddserve.CodeBadRequest) {
			t.Fatalf("from=%s: %d %s, want %d %s", from, code, body, http.StatusBadRequest, mddserve.CodeBadRequest)
		}
	}
	if code, body := get(strconv.Itoa(status.Events + 5)); code != http.StatusOK || body != "" {
		t.Fatalf("from past the last event: %d %q, want an empty %d", code, body, http.StatusOK)
	}
}

func testUnknownJobIs404(t *testing.T) {
	st := newStack(t, mddserve.Config{})

	_, err := st.client.Status(ctx(t), "job-999")
	wantAPIError(t, err, http.StatusNotFound, mddserve.CodeNotFound)

	_, err = st.client.Cancel(ctx(t), "job-999")
	wantAPIError(t, err, http.StatusNotFound, mddserve.CodeNotFound)

	err = st.client.Stream(ctx(t), "job-999", 0, func(mddserve.Event) error { return nil })
	wantAPIError(t, err, http.StatusNotFound, mddserve.CodeNotFound)
}

func testQueueFullBackpressureAndClientRetry(t *testing.T) {
	st := newStack(t, mddserve.Config{Workers: 1, QueueSize: 3, PerTenantInflight: 100})

	// Park the worker so admission is exactly deterministic, then fill
	// the queue.
	st.server.Pause()
	ids := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		id, err := st.client.Submit(ctx(t), mddserve.JobSpec{
			Type: mddserve.JobCompress, Dataset: serveDataset(),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	// A non-retrying client sees the raw 429.
	noRetry := mddclient.New(st.web.URL, mddclient.Options{Tenant: "suite", MaxAttempts: 1})
	_, err := noRetry.Submit(ctx(t), mddserve.JobSpec{
		Type: mddserve.JobCompress, Dataset: serveDataset(),
	})
	if !wantAPIError(t, err, http.StatusTooManyRequests, mddserve.CodeQueueFull).Retryable() {
		t.Fatal("a full queue must be retryable")
	}

	stats, err := st.client.ServerStats(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if stats.RejectsQueue != 1 || stats.QueueDepth != 3 {
		t.Fatalf("%d queue rejects at depth %d, want 1 at 3", stats.RejectsQueue, stats.QueueDepth)
	}

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
	id, err := retrying.Submit(ctx(t), mddserve.JobSpec{
		Type: mddserve.JobCompress, Dataset: serveDataset(),
	})
	if err != nil {
		t.Fatalf("retry-after-429 must eventually admit once the queue drains: %v", err)
	}
	ids = append(ids, id)

	for _, id := range ids {
		status, err := st.client.Wait(ctx(t), id)
		wantState(t, status, err, mddserve.StateDone)
	}
	stats, err = st.client.ServerStats(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 4 || stats.RejectsQueue < 1 {
		t.Fatalf("%d completed with %d queue rejects, want 4 with at least 1", stats.Completed, stats.RejectsQueue)
	}
}

func testPerTenantLimit(t *testing.T) {
	st := newStack(t, mddserve.Config{Workers: 1, QueueSize: 16, PerTenantInflight: 2})
	alice := mddclient.New(st.web.URL, mddclient.Options{Tenant: "alice", MaxAttempts: 1})
	bob := mddclient.New(st.web.URL, mddclient.Options{Tenant: "bob", MaxAttempts: 1})
	spec := mddserve.JobSpec{Type: mddserve.JobCompress, Dataset: serveDataset()}

	st.server.Pause()
	var ids []string
	for i := 0; i < 2; i++ {
		id, err := alice.Submit(ctx(t), spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	_, err := alice.Submit(ctx(t), spec)
	wantAPIError(t, err, http.StatusTooManyRequests, mddserve.CodeTenantLimit)

	// Another tenant is unaffected by alice's limit.
	id, err := bob.Submit(ctx(t), spec)
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, id)

	st.server.Resume()
	for _, id := range ids {
		status, err := st.client.Wait(ctx(t), id)
		wantState(t, status, err, mddserve.StateDone)
	}
	stats, err := st.client.ServerStats(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if stats.RejectsTenant != 1 || stats.PeakInflight["alice"] != 2 || stats.PeakInflight["bob"] != 1 {
		t.Fatalf("%d tenant rejects, peak in flight %v; want 1, alice 2, bob 1",
			stats.RejectsTenant, stats.PeakInflight)
	}
}

// testChaosOverHTTP runs the same inversion against a fault-free server
// and one whose serving path injects shard deaths, a transient shard
// error, and a whole-product failure. Re-sharding and checkpoint resume
// are bitwise neutral, so the client-visible solutions must agree to
// 1e-5 (the repo-wide chaos tolerance).
func testChaosOverHTTP(t *testing.T) {
	sched, err := fault.Parse("shard2:die@3,shard5:die@5,shard1:err@2,op:err@8")
	if err != nil {
		t.Fatal(err)
	}

	clean := newStack(t, mddserve.Config{Workers: 1, Shards: 8})
	chaotic := newStack(t, mddserve.Config{
		Workers: 1, Shards: 8,
		Faults:     sched,
		FaultSleep: func(time.Duration) {},
	})

	spec := mddserve.JobSpec{
		Type: mddserve.JobMDD, Dataset: serveDataset(),
		Iters: 8, VS: 3, ReturnSolution: true,
	}
	ref, err := clean.client.Run(ctx(t), spec)
	wantState(t, ref, err, mddserve.StateDone)

	got, err := chaotic.client.Run(ctx(t), spec)
	if err != nil {
		t.Fatalf("the resilient stack must absorb the whole schedule: %v", err)
	}
	wantState(t, got, err, mddserve.StateDone)
	if got.Result.Restarts <= 0 {
		t.Fatal("op:err@8 must force a solver restart")
	}
	if got.Result.SalvagedIters <= 0 {
		t.Fatal("the restart must resume from a checkpoint")
	}
	if got.Result.Iterations != ref.Result.Iterations {
		t.Fatalf("%d iterations, fault-free %d", got.Result.Iterations, ref.Result.Iterations)
	}

	rel := testkit.RelErr(solutionVec(t, got.Result), solutionVec(t, ref.Result))
	if !(rel <= 1e-5) {
		t.Fatalf("faulted serving path deviates from fault-free: relErr %.3g", rel)
	}
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

func testHealthStatsAndMetrics(t *testing.T) {
	st := newStack(t, mddserve.Config{})
	if err := st.client.Health(ctx(t)); err != nil {
		t.Fatal(err)
	}

	// The metrics endpoint mirrors the obs registry; collection is
	// global, so only assert deltas caused by this stack's job.
	status, err := st.client.Run(ctx(t), mddserve.JobSpec{
		Type: mddserve.JobCompress, Dataset: serveDataset(),
	})
	wantState(t, status, err, mddserve.StateDone)

	stats, err := st.client.ServerStats(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Submitted != 1 || stats.Completed != 1 || stats.QueueDepth != 0 {
		t.Fatalf("%d submitted, %d completed, depth %d; want 1, 1, 0",
			stats.Submitted, stats.Completed, stats.QueueDepth)
	}

	snap, err := st.client.Metrics(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("metrics endpoint returned no snapshot")
	}
}
