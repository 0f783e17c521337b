// Serving-layer load test: hundreds of concurrent small jobs from
// several tenants hammer one server through the typed client's retry
// path, with admission limits small enough that 429 backpressure fires
// constantly. Runs under -race in `make race-stress`; the assertions
// are exact because the server's accounting is deterministic even when
// its scheduling is not.
package repro

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/mddclient"
	"repro/internal/mddserve"
	"repro/internal/testkit/suite"
)

// newLocalServer exposes the server on 127.0.0.1:0 for the duration of
// the test.
func newLocalServer(t *testing.T, srv *mddserve.Server) *httptest.Server {
	t.Helper()
	web := httptest.NewServer(srv.Handler())
	t.Cleanup(web.Close)
	return web
}

func TestStressServeConcurrentJobs(t *testing.T) {
	suite.VerifyNoLeaks(t)
	const (
		tenants   = 4
		perTenant = 60 // 240 jobs total
		inflight  = 5
	)
	srv := mddserve.New(mddserve.Config{
		Workers:           4,
		Shards:            4,
		QueueSize:         8,
		PerTenantInflight: inflight,
		BackoffSleep:      func(time.Duration) {},
	})
	defer srv.Close()
	web := newLocalServer(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// Tiny mixed workload on one shared cached dataset: mostly quick
	// inversions, with compress and tlrmvm jobs interleaved.
	specFor := func(i int) mddserve.JobSpec {
		spec := mddserve.JobSpec{Type: mddserve.JobMDD, Dataset: serveDataset(), Iters: 2}
		switch i % 5 {
		case 3:
			spec = mddserve.JobSpec{Type: mddserve.JobCompress, Dataset: serveDataset()}
		case 4:
			spec = mddserve.JobSpec{Type: mddserve.JobTLRMVM, Dataset: serveDataset(), Seed: int64(i)}
		default:
			spec.VS = i % serveDataset().Receivers()
		}
		return spec
	}

	var wg sync.WaitGroup
	errs := make(chan error, tenants*perTenant)
	for tn := 0; tn < tenants; tn++ {
		client := mddclient.New(web.URL, mddclient.Options{
			Tenant:      fmt.Sprintf("tenant-%d", tn),
			MaxAttempts: 200, // admission pressure is the point; keep retrying
			Sleep:       func(time.Duration) { time.Sleep(time.Millisecond) },
		})
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				status, err := client.Run(ctx, specFor(i))
				if err != nil {
					errs <- fmt.Errorf("job %d: %w", i, err)
					return
				}
				if status.State != mddserve.StateDone {
					errs <- fmt.Errorf("job %d finished %s: %s", i, status.State, status.Error)
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	stats := srv.Stats()
	if got := stats.Completed; got != tenants*perTenant {
		t.Errorf("completed %d jobs, want %d", got, tenants*perTenant)
	}
	if stats.Failed != 0 || stats.Cancelled != 0 {
		t.Errorf("failed=%d cancelled=%d, want 0/0", stats.Failed, stats.Cancelled)
	}
	// The load (60 jobs per tenant against a 5-job budget) must have
	// exercised admission control, and the limit must never have been
	// breached: the peak is the high-water mark taken under the same
	// lock that admits.
	if stats.RejectsQueue+stats.RejectsTenant == 0 {
		t.Error("load never triggered admission control; the test is not stressing anything")
	}
	for tenant, peak := range stats.PeakInflight {
		if peak > inflight {
			t.Errorf("tenant %s peaked at %d in-flight jobs, limit %d", tenant, peak, inflight)
		}
	}
	if len(stats.PeakInflight) != tenants {
		t.Errorf("saw %d tenants, want %d", len(stats.PeakInflight), tenants)
	}
}

// TestStressServeCancelStorm mixes cancellation into concurrent load:
// every other job is cancelled right after submission. Nothing may
// deadlock, double-finish, or leak a tenant slot.
func TestStressServeCancelStorm(t *testing.T) {
	suite.VerifyNoLeaks(t)
	const jobs = 80
	srv := mddserve.New(mddserve.Config{
		Workers:           2,
		QueueSize:         jobs,
		PerTenantInflight: jobs,
		BackoffSleep:      func(time.Duration) {},
	})
	defer srv.Close()
	web := newLocalServer(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	client := mddclient.New(web.URL, mddclient.Options{Tenant: "storm", MaxAttempts: 100,
		Sleep: func(time.Duration) { time.Sleep(time.Millisecond) }})

	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, err := client.Submit(ctx, mddserve.JobSpec{
				Type: mddserve.JobMDD, Dataset: serveDataset(), Iters: 3, VS: i % 9,
			})
			if err != nil {
				errs <- fmt.Errorf("submit %d: %w", i, err)
				return
			}
			if i%2 == 1 {
				if _, err := client.Cancel(ctx, id); err != nil {
					errs <- fmt.Errorf("cancel %d: %w", i, err)
					return
				}
			}
			status, err := client.Wait(ctx, id)
			if err != nil {
				errs <- fmt.Errorf("wait %d: %w", i, err)
				return
			}
			if !status.State.Terminal() {
				errs <- fmt.Errorf("job %d ended non-terminal: %s", i, status.State)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	stats := srv.Stats()
	if total := stats.Completed + stats.Cancelled; total != jobs {
		t.Errorf("completed %d + cancelled %d = %d, want %d (failed=%d)",
			stats.Completed, stats.Cancelled, total, jobs, stats.Failed)
	}
	if stats.Failed != 0 {
		t.Errorf("%d jobs failed under the cancel storm", stats.Failed)
	}
	// Every slot must be returned: a fresh submit succeeds immediately
	// with retries disabled.
	probe := mddclient.New(web.URL, mddclient.Options{Tenant: "storm", MaxAttempts: 1})
	if _, err := probe.Run(ctx, mddserve.JobSpec{Type: mddserve.JobCompress, Dataset: serveDataset()}); err != nil {
		t.Errorf("post-storm submit failed, a slot leaked: %v", err)
	}
}
