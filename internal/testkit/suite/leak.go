package suite

import (
	"runtime"
	"testing"
	"time"
)

// leakWait bounds how long VerifyNoLeaks waits for goroutines that are
// already on their way out (a worker between its last receive and its
// return, an HTTP connection loop seeing the listener close).
const leakWait = 2 * time.Second

// VerifyNoLeaks snapshots the goroutine count and, when the test ends,
// polls until the count is back at or below the snapshot, failing with
// a dump of every goroutine's stack if it is not within leakWait. Call
// it first: cleanups run last-in-first-out, so everything the test
// registers afterwards (server Close, context cancel) has run by the
// time the count is compared. It is a count, not an identity check —
// use it in tests that do not run in parallel with others.
//
// It lives in this stdlib-only package rather than in testkit proper
// because testkit imports batch and mdc, whose in-package stress tests
// are among the callers.
func VerifyNoLeaks(t testing.TB) {
	t.Helper()
	verifyNoLeaks(t, leakWait)
}

func verifyNoLeaks(t testing.TB, wait time.Duration) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(wait)
		for {
			n := runtime.NumGoroutine()
			if n <= base {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				buf = buf[:runtime.Stack(buf, true)]
				t.Errorf("goroutine leak: %d goroutines at test start, %d still running %v after it ended\n%s", base, n, wait, buf)
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
}
