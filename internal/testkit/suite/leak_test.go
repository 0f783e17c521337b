package suite

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// leakRecorder stands in for the *testing.T under check: it captures
// the cleanup and the failure instead of failing the real test.
type leakRecorder struct {
	testing.TB
	cleanup func()
	failure string
}

func (r *leakRecorder) Helper()          {}
func (r *leakRecorder) Cleanup(f func()) { r.cleanup = f }
func (r *leakRecorder) Errorf(format string, args ...any) {
	r.failure = format
}

// TestVerifyNoLeaks is the helper's own control pair: a goroutine that
// has exited by the end of the test passes, one that is still blocked
// fails with the stack dump.
func TestVerifyNoLeaks(t *testing.T) {
	rec := &leakRecorder{TB: t}
	verifyNoLeaks(rec, 20*time.Millisecond)
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
	rec.cleanup()
	if rec.failure != "" {
		t.Errorf("joined goroutine reported as a leak: %s", rec.failure)
	}

	rec = &leakRecorder{TB: t}
	verifyNoLeaks(rec, 20*time.Millisecond)
	release := make(chan struct{})
	defer close(release)
	go func() { <-release }()
	rec.cleanup()
	if !strings.Contains(rec.failure, "goroutine leak") {
		t.Error("a goroutine still blocked at cleanup was not reported")
	}
}

// TestVerifyNoLeaksComparesIDs is the order dependence a count check
// had: a goroutine that predates the snapshot — an earlier test's, on its
// way out — exits inside the window while one the test started stays
// blocked. The goroutine count is back at the snapshot's, so a count
// check passes (the old one did, checked by running this test against
// it); the blocked goroutine's ID is new, so this check must fail.
func TestVerifyNoLeaksComparesIDs(t *testing.T) {
	stop, exited := make(chan struct{}), make(chan uint64)
	go func() {
		<-stop
		buf := make([]byte, 256)
		exited <- parseStacks(buf[:runtime.Stack(buf, false)])[0].id
	}()
	rec := &leakRecorder{TB: t}
	verifyNoLeaks(rec, 20*time.Millisecond)
	release := make(chan struct{})
	defer close(release)
	go func() { <-release }()

	close(stop)
	old := <-exited
	for gone := false; !gone; time.Sleep(time.Millisecond) {
		gone = true
		for _, g := range goroutines() {
			gone = gone && g.id != old
		}
	}
	rec.cleanup()
	if !strings.Contains(rec.failure, "goroutine leak") {
		t.Error("a leak offset by an older goroutine's exit was not reported")
	}
}

// parkedWaiter blocks in sync.Cond.Wait until release is set.
func parkedWaiter(mu *sync.Mutex, cond *sync.Cond, release *bool, done chan<- struct{}) {
	mu.Lock()
	for !*release {
		cond.Wait()
	}
	mu.Unlock()
	close(done)
}

// TestWaitParked: a goroutine parked on a condition variable is counted
// under its own function's name and not under another's, and a count
// that is never reached times out.
func TestWaitParked(t *testing.T) {
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	release := false
	done := make(chan struct{})
	go parkedWaiter(&mu, cond, &release, done)
	if !WaitParked("suite.parkedWaiter", 1, 10*time.Second) {
		t.Fatal("a goroutine parked in sync.Cond.Wait was not seen")
	}
	if WaitParked("suite.parkedWaiter", 2, 20*time.Millisecond) {
		t.Error("one parked goroutine counted as two")
	}
	if WaitParked("suite.TestWaitParked", 1, 20*time.Millisecond) {
		t.Error("a goroutine counted under a function it is not parked in")
	}
	mu.Lock()
	release = true
	mu.Unlock()
	cond.Broadcast()
	<-done
}
