// Tests of the HTTP layer, driven through Handler() without a listener,
// so a handler panic or a blocked handler fails the test at once: the
// body cap, the events endpoint's ?from= and its stream of a running
// job, and a fuzz target that feeds arbitrary bytes through decoding,
// validation and admission.
package mddserve

import (
	"bytes"
	"encoding/json"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/testkit/suite"
)

// TestEventsRejectsBadFrom sends the ?from= values the typed client
// never does. Negative, non-numeric and out-of-range values are 400
// bad_request; a from past the last event of a finished job is an
// empty 200 stream. The job has finished and left the queue before the
// first request, so a handler that panics holding the job's lock fails
// the test without wedging Close.
func TestEventsRejectsBadFrom(t *testing.T) {
	s := newServer(t, testConfig())
	id, err := s.submit(testSpec(JobCompress), "t")
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, s, id)
	get := func(from string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/jobs/"+id+"/events?from="+from, nil))
		return rec
	}
	for _, from := range []string{"-1", "abc", "99999999999999999999"} {
		rec := get(from)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), CodeBadRequest) {
			t.Errorf("from=%s: status %d (%s), want 400 %s", from, rec.Code, rec.Body, CodeBadRequest)
		}
	}
	past := strconv.Itoa(st.Events + 5)
	if rec := get(past); rec.Code != http.StatusOK || rec.Body.Len() != 0 {
		t.Errorf("from=%s past %d events: status %d, body %q; want an empty 200", past, st.Events, rec.Code, rec.Body)
	}
}

// flushRecorder is a ResponseRecorder that closes flushed on its first
// Flush.
type flushRecorder struct {
	*httptest.ResponseRecorder
	once    sync.Once
	flushed chan struct{}
}

func (r *flushRecorder) Flush() {
	r.ResponseRecorder.Flush()
	r.release()
}

func (r *flushRecorder) release() { r.once.Do(func() { close(r.flushed) }) }

// TestStreamFollowsRunningJob: the events stream of a running mdd job
// follows it to its terminal event, with every residual in order. The
// job is held at its second operator product until the stream has
// flushed the events it had, so the stream then waits for each event
// while the job publishes it.
func TestStreamFollowsRunningJob(t *testing.T) {
	suite.VerifyNoLeaks(t)
	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder(), flushed: make(chan struct{})}
	cfg := testConfig()
	cfg.Faults = fault.Schedule{{Target: "op", Kind: fault.Latency, At: 2, Delay: time.Millisecond}}
	cfg.FaultSleep = func(time.Duration) { <-rec.flushed }
	s := newServer(t, cfg)
	// Registered after newServer, so it runs first: Close waits for the
	// held job.
	t.Cleanup(rec.release)
	id, err := s.submit(testSpec(JobMDD), "t")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, func(st State) bool { return st == StateRunning })
	req := httptest.NewRequest(http.MethodGet, "/api/v1/jobs/"+id+"/events", nil)
	if !within(func() { s.Handler().ServeHTTP(rec, req) }) {
		t.Fatalf("stream of a running job did not reach its terminal event within %v", waitBound)
	}

	st, _ := s.status(id)
	var events []Event
	dec := json.NewDecoder(rec.Body)
	for dec.More() {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	if len(events) != st.Events || st.State != StateDone {
		t.Fatalf("streamed %d events of a job with %d, ending %s", len(events), st.Events, st.State)
	}
	iter := 0
	for i, ev := range events {
		if ev.Seq != i {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Kind == EventResidual {
			if ev.Iter <= iter {
				t.Errorf("residual of iteration %d streamed after iteration %d", ev.Iter, iter)
			}
			iter = ev.Iter
		}
	}
	if iter != st.Result.Iterations {
		t.Errorf("last streamed residual is iteration %d of %d", iter, st.Result.Iterations)
	}
	if last := events[len(events)-1]; last.Kind != EventState || last.State != StateDone {
		t.Errorf("last event %+v, want the done state event", last)
	}
}

// postSpec sends body to the submit endpoint of a fresh paused server
// and returns the response and, for a 202, the spec as the server
// queued it. The job is cancelled before the server closes at the end
// of the test, so no job ever runs.
func postSpec(t *testing.T, body []byte) (*httptest.ResponseRecorder, *JobSpec) {
	t.Helper()
	s := newServer(t, testConfig())
	s.Pause()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/jobs", bytes.NewReader(body)))
	if rec.Code != http.StatusAccepted {
		return rec, nil
	}
	var resp SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("202 with body %q: %v", rec.Body, err)
	}
	j, ok := s.jobByID(resp.ID)
	if !ok {
		t.Fatalf("202 for unknown job %q", resp.ID)
	}
	s.cancel(resp.ID)
	return rec, &j.spec
}

// TestBodyCap: a submit body of maxBodyBytes is read, one byte more is
// 413 too_large. The padding leads the spec, so the decoder has to read
// every byte before it has a value.
func TestBodyCap(t *testing.T) {
	spec := `{"type":"compress","dataset":{"nsx":4,"nsy":3,"nrx":3,"nry":3,"nt":32}}`
	for _, tc := range []struct{ size, code int }{
		{maxBodyBytes, http.StatusAccepted},
		{maxBodyBytes + 1, http.StatusRequestEntityTooLarge},
	} {
		rec, _ := postSpec(t, []byte(strings.Repeat(" ", tc.size-len(spec))+spec))
		if rec.Code != tc.code {
			t.Errorf("%d-byte body: status %d (%s), want %d", tc.size, rec.Code, rec.Body, tc.code)
		}
	}
}

// FuzzSubmit: whatever the body, POST /api/v1/jobs answers with an
// admission status — 202, 400, 413 or 429 — and does not panic, and a
// spec the server accepts satisfies every size cap when the grid point
// counts are recomputed in big-integer arithmetic.
func FuzzSubmit(f *testing.F) {
	for _, seed := range []string{
		// 2³²+1 × 2³²−1 sources: the product wraps to −1.
		`{"type":"compress","dataset":{"nsx":4294967297,"nsy":4294967295,"nrx":4,"nry":4,"nt":16}}`,
		// 2³² × 2³² receivers: the product wraps to 0.
		`{"type":"tlrmvm","dataset":{"nsx":4,"nsy":4,"nrx":4294967296,"nry":4294967296,"nt":16}}`,
		`{"type":"mdd","dataset":{"nsx":4,"nsy":3,"nrx":3,"nry":3,"nt":32},"vs":8,"iters":500}`,
		`{"type":"tlrmvm","dataset":{"nsx":4,"nsy":3,"nrx":3,"nry":3,"nt":32},"reps":1001}`,
		`{"type":"compress","dataset":{"nsx":4,"nsy":3,"nrx":3,"nry":3,"nt":32},"bogus":1}`,
		`{not json`,
	} {
		f.Add([]byte(seed))
	}
	caps := testConfig().withDefaults()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec, spec := postSpec(t, body)
		switch rec.Code {
		case http.StatusAccepted:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
			return
		default:
			t.Fatalf("status %d (%s) for body %q", rec.Code, rec.Body, body)
		}
		d := spec.Dataset
		within := func(a, b, limit int) bool {
			p := new(big.Int).Mul(big.NewInt(int64(a)), big.NewInt(int64(b)))
			return a >= 2 && b >= 2 && p.Cmp(big.NewInt(int64(limit))) <= 0
		}
		if !within(d.NsX, d.NsY, caps.MaxSources) || !within(d.NrX, d.NrY, caps.MaxReceivers) ||
			d.Nt > caps.MaxNt || spec.Iters > maxIters || spec.Reps > maxReps {
			t.Fatalf("accepted %+v past the caps", *spec)
		}
	})
}
