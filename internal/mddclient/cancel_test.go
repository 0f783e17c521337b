// Cancellation tests for the client's one wait, Client.sleep, and the
// retry loops around it: a context that ends cuts a backoff, a poll or
// a reconnect short, and a request that fails after its context ended
// is not retried.
package mddclient_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/mddclient"
	"repro/internal/mddserve"
	"repro/internal/testkit/suite"
)

// TestCancelInterruptsLongWaits: with no Sleep hook, each of the
// client's waits ends with its context. The server asks for an hour —
// a Retry-After on submit, a poll interval, a reconnect backoff — and
// the caller's 100 ms deadline must end the call well within 2 s.
func TestCancelInterruptsLongWaits(t *testing.T) {
	hour := time.Hour
	for _, tc := range []struct {
		name string
		opts mddclient.Options
		h    http.HandlerFunc
		call func(context.Context, *mddclient.Client) error
	}{
		{"Submit after Retry-After 3600", mddclient.Options{}, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "3600")
			writeErr(w, http.StatusTooManyRequests, mddserve.CodeQueueFull)
		}, func(ctx context.Context, c *mddclient.Client) error {
			_, err := c.Submit(ctx, validSpec())
			return err
		}},
		{"Wait between polls", mddclient.Options{PollInterval: hour}, func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, mddserve.JobStatus{ID: "job-1", State: mddserve.StateRunning})
		}, func(ctx context.Context, c *mddclient.Client) error {
			_, err := c.Wait(ctx, "job-1")
			return err
		}},
		{"Stream before reconnecting", mddclient.Options{Backoff: hour, MaxBackoff: hour}, func(w http.ResponseWriter, r *http.Request) {
			// the stream ends before a terminal event
			_ = json.NewEncoder(w).Encode(mddserve.Event{Seq: 0, Kind: mddserve.EventState, State: mddserve.StateQueued})
		}, func(ctx context.Context, c *mddclient.Client) error {
			return c.Stream(ctx, "job-1", 0, func(mddserve.Event) error { return nil })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			suite.VerifyNoLeaks(t)
			web := httptest.NewServer(tc.h)
			t.Cleanup(web.Close)
			client := mddclient.New(web.URL, tc.opts)
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			var err error
			done := make(chan struct{})
			go func() {
				defer close(done)
				err = tc.call(ctx, client)
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("still waiting 2s into an hour-long wait, past the 100ms deadline")
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
		})
	}
}

// failingTransport answers every request with status, then calls after
// (when set): the caller's context can end just as the answer arrives.
// It counts the requests it sees, with no network underneath.
type failingTransport struct {
	status   int
	after    func()
	requests int
}

func (tr *failingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr.requests++
	body, err := json.Marshal(mddserve.ErrorBody{Code: mddserve.CodeShutdown, Message: "unavailable"})
	if err != nil {
		return nil, err
	}
	if tr.after != nil {
		tr.after()
	}
	return &http.Response{
		StatusCode: tr.status,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(bytes.NewReader(body)),
		Request:    req,
	}, nil
}

// TestCancelAfterFailureSkipsBackoff: a retryable failure that arrives
// after the caller's context ended is returned as it is, with no backoff
// and no second request — for one-shot requests and for streams alike.
func TestCancelAfterFailureSkipsBackoff(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(context.Context, *mddclient.Client) error
	}{
		{"Submit", func(ctx context.Context, c *mddclient.Client) error {
			_, err := c.Submit(ctx, validSpec())
			return err
		}},
		{"Stream", func(ctx context.Context, c *mddclient.Client) error {
			return c.Stream(ctx, "job-1", 0, func(mddserve.Event) error { return nil })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			tr := &failingTransport{status: http.StatusServiceUnavailable, after: cancel}
			sleeps := 0
			client := mddclient.New("http://mddserve.test", mddclient.Options{
				HTTPClient: &http.Client{Transport: tr},
				Sleep:      func(time.Duration) { sleeps++ },
			})
			err := tc.call(ctx, client)
			var apiErr *mddclient.APIError
			if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("err = %v, want the 503 the request got", err)
			}
			if sleeps != 0 || tr.requests != 1 {
				t.Errorf("%d backoff(s) and %d request(s) after cancellation, want 0 and 1", sleeps, tr.requests)
			}
		})
	}
}

// TestCancelDuringSleepHookSendsNoRequest: a Sleep hook cannot be
// interrupted, so the context is checked when it returns; a context
// that ended during the hook's wait sends no further request.
func TestCancelDuringSleepHookSendsNoRequest(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &failingTransport{status: http.StatusServiceUnavailable}
	client := mddclient.New("http://mddserve.test", mddclient.Options{
		HTTPClient: &http.Client{Transport: tr},
		Sleep:      func(time.Duration) { cancel() },
	})
	_, err := client.Submit(ctx, validSpec())
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if tr.requests != 1 {
		t.Errorf("%d requests, want 1: the context ended during the backoff", tr.requests)
	}
}
