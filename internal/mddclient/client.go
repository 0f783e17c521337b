// Package mddclient is the typed Go SDK for the mddserve HTTP API:
// submit/poll/stream/cancel with context plumbing and deterministic
// exponential retry-with-backoff on backpressure (429) and transient
// upstream failures (5xx, network errors). The shape follows the gorse
// client pattern — a thin struct over net/http whose every method is
// exercised by the repo's testify-style integration suite against a
// live in-process server.
package mddclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/mddserve"
	"repro/internal/obs"
)

// Client metrics: request totals plus how often the retry loop absorbed
// a backpressure or transient-failure response.
var (
	obsRequests = obs.NewCounter("mddclient.requests")
	obsRetries  = obs.NewCounter("mddclient.retries")
)

// APIError is a non-2xx response decoded from the server's error
// envelope.
type APIError struct {
	StatusCode int
	Code       string
	Message    string

	// retryAfter carries the server's Retry-After hint, consumed by the
	// retry loop's backoff computation.
	retryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("mddserve: %d %s: %s", e.StatusCode, e.Code, e.Message)
}

// Retryable reports whether the response class is worth retrying:
// backpressure (429) and transient upstream failures (502, 503, 504).
func (e *APIError) Retryable() bool {
	switch e.StatusCode {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Options configures a Client.
type Options struct {
	// Tenant is sent as the admission-control identity header.
	Tenant string
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
	// MaxAttempts bounds each request's tries, first attempt included
	// (default 6). 1 disables retries.
	MaxAttempts int
	// Backoff is the delay before the first retry; it doubles per
	// attempt (default 25ms), capped by MaxBackoff (default 1s). A
	// Retry-After header overrides the computed delay. The schedule is
	// deliberately deterministic — no jitter — so client behaviour in
	// tests and chaos runs replays exactly.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// PollInterval paces Wait's status polling (default 5ms).
	PollInterval time.Duration
	// Sleep, when set, replaces the backoff and polling wait (tests
	// inject a no-op). It cannot be interrupted, so the context is
	// checked once it returns; without it the wait ends early when the
	// context does.
	Sleep func(time.Duration)
}

// Client talks to one mddserve base URL. It is safe for concurrent use.
type Client struct {
	base string
	opts Options
}

// New builds a client for a base URL like "http://127.0.0.1:8700".
func New(base string, opts Options) *Client {
	if opts.HTTPClient == nil {
		opts.HTTPClient = http.DefaultClient
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 6
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 25 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = time.Second
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 5 * time.Millisecond
	}
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return &Client{base: base, opts: opts}
}

// do issues one request with the retry policy. body, when non-nil, is
// re-sent on every attempt. The response body is decoded into out when
// out is non-nil.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		payload, err = json.Marshal(body)
		if err != nil {
			return fmt.Errorf("mddclient: encoding request: %w", err)
		}
	}
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			obsRetries.Add(1)
			if err := c.sleep(ctx, c.backoffDelay(attempt, lastErr)); err != nil {
				return err
			}
		}
		lastErr = c.once(ctx, method, path, payload, out)
		if lastErr == nil {
			return nil
		}
		var apiErr *APIError
		if errors.As(lastErr, &apiErr) && !apiErr.Retryable() {
			return lastErr
		}
		if ctx.Err() != nil {
			return lastErr
		}
	}
	return lastErr
}

// once issues a single attempt.
func (c *Client) once(ctx context.Context, method, path string, payload []byte, out any) error {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("mddclient: building request: %w", err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.opts.Tenant != "" {
		req.Header.Set(mddserve.TenantHeader, c.opts.Tenant)
	}
	obsRequests.Add(1)
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		return fmt.Errorf("mddclient: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeAPIError(resp)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("mddclient: decoding response: %w", err)
		}
	}
	return nil
}

// backoffDelay computes the deterministic delay before retry `attempt`
// (1-based), honoring a Retry-After hint from the previous failure.
func (c *Client) backoffDelay(attempt int, lastErr error) time.Duration {
	var apiErr *APIError
	if errors.As(lastErr, &apiErr) && apiErr.retryAfter > 0 {
		return apiErr.retryAfter
	}
	d := c.opts.Backoff << (attempt - 1)
	if d > c.opts.MaxBackoff || d <= 0 {
		d = c.opts.MaxBackoff
	}
	return d
}

// sleep waits for d or the context, whichever ends first. An injected
// Sleep hook waits out d in full and the context is checked after it.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if c.opts.Sleep != nil {
		c.opts.Sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func decodeAPIError(resp *http.Response) error {
	apiErr := &APIError{StatusCode: resp.StatusCode, Code: "unknown"}
	var body mddserve.ErrorBody
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err == nil && body.Code != "" {
		apiErr.Code = body.Code
		apiErr.Message = body.Message
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			apiErr.retryAfter = time.Duration(secs) * time.Second
		}
	}
	return apiErr
}

// Submit submits a job and returns its ID. 429 responses are retried
// per the backoff policy; a submit retried after a network error may in
// rare cases double-submit (the job is idempotent but the duplicate
// occupies a queue slot).
func (c *Client) Submit(ctx context.Context, spec mddserve.JobSpec) (string, error) {
	var out mddserve.SubmitResponse
	if err := c.do(ctx, http.MethodPost, "/api/v1/jobs", spec, &out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// Status polls one job.
func (c *Client) Status(ctx context.Context, id string) (*mddserve.JobStatus, error) {
	var out mddserve.JobStatus
	if err := c.do(ctx, http.MethodGet, "/api/v1/jobs/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Cancel requests cancellation and returns the resulting status.
func (c *Client) Cancel(ctx context.Context, id string) (*mddserve.JobStatus, error) {
	var out mddserve.JobStatus
	if err := c.do(ctx, http.MethodDelete, "/api/v1/jobs/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Wait polls until the job reaches a terminal state or the context
// ends.
func (c *Client) Wait(ctx context.Context, id string) (*mddserve.JobStatus, error) {
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		if err := c.sleep(ctx, c.opts.PollInterval); err != nil {
			return nil, err
		}
	}
}

// Run submits the spec and waits for its terminal status.
func (c *Client) Run(ctx context.Context, spec mddserve.JobSpec) (*mddserve.JobStatus, error) {
	id, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	return c.Wait(ctx, id)
}

// Stream replays the job's event stream from sequence number `from`,
// invoking fn for each event in order, and returns once the terminal
// state event has been delivered. A dropped connection resumes from the
// next undelivered sequence number under the retry policy. fn returning
// a non-nil error stops the stream and returns that error.
func (c *Client) Stream(ctx context.Context, id string, from int, fn func(mddserve.Event) error) error {
	next := from
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			obsRetries.Add(1)
			if err := c.sleep(ctx, c.backoffDelay(attempt, lastErr)); err != nil {
				return err
			}
		}
		terminal, n, err := c.streamOnce(ctx, id, next, fn)
		next = n
		if terminal {
			return nil
		}
		if err != nil {
			var fnErr *callbackError
			if errors.As(err, &fnErr) {
				return fnErr.err
			}
			var apiErr *APIError
			if errors.As(err, &apiErr) && !apiErr.Retryable() {
				return err
			}
			if ctx.Err() != nil {
				return err
			}
			lastErr = err
			continue
		}
		// Stream ended cleanly but before a terminal event (server-side
		// write cutoff); resume where it stopped.
		lastErr = fmt.Errorf("mddclient: stream for %s ended before a terminal event", id)
	}
	return lastErr
}

// callbackError marks an error returned by the caller's stream fn so
// the retry loop does not swallow it.
type callbackError struct{ err error }

func (e *callbackError) Error() string { return e.err.Error() }

// streamOnce runs a single streaming connection; it returns whether a
// terminal event was seen and the next undelivered sequence number.
func (c *Client) streamOnce(ctx context.Context, id string, from int, fn func(mddserve.Event) error) (bool, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/api/v1/jobs/"+id+"/events?from="+strconv.Itoa(from), nil)
	if err != nil {
		return false, from, fmt.Errorf("mddclient: building stream request: %w", err)
	}
	if c.opts.Tenant != "" {
		req.Header.Set(mddserve.TenantHeader, c.opts.Tenant)
	}
	obsRequests.Add(1)
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		return false, from, fmt.Errorf("mddclient: stream %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return false, from, decodeAPIError(resp)
	}
	next := from
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev mddserve.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return false, next, fmt.Errorf("mddclient: decoding stream event: %w", err)
		}
		if ev.Seq < next {
			continue // replayed duplicate after a resume
		}
		if err := fn(ev); err != nil {
			return false, next, &callbackError{err: err}
		}
		next = ev.Seq + 1
		if ev.Kind == mddserve.EventState && ev.State.Terminal() {
			return true, next, nil
		}
	}
	return false, next, sc.Err()
}

// Health checks the liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/api/v1/healthz", nil, nil)
}

// ServerStats fetches the server's deterministic accounting.
func (c *Client) ServerStats(ctx context.Context) (*mddserve.Stats, error) {
	var out mddserve.Stats
	if err := c.do(ctx, http.MethodGet, "/api/v1/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the server's obs registry snapshot.
func (c *Client) Metrics(ctx context.Context) (*obs.Snapshot, error) {
	var out obs.Snapshot
	if err := c.do(ctx, http.MethodGet, "/api/v1/metrics", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
