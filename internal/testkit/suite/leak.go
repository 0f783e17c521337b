// Package suite holds the goroutine checks of tests that start servers,
// shard runners or fan-outs: VerifyNoLeaks fails a test that leaves a
// goroutine running, and WaitParked lets a wakeup test wait for its
// workers to park.
package suite

import (
	"bytes"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// leakWait bounds how long VerifyNoLeaks waits for goroutines that are
// already on their way out (a worker between its last receive and its
// return, an HTTP connection loop seeing the listener close).
const leakWait = 2 * time.Second

// VerifyNoLeaks records which goroutines exist when it is called and,
// when the test ends, polls until every goroutine started since has
// exited, failing with the stacks of those still running after leakWait.
// Call it first: cleanups run last-in-first-out, so everything the test
// registers afterwards (server Close, context cancel) has run by the
// time it looks. It compares goroutine IDs, not counts, so a goroutine
// of an earlier test that exits inside the window cannot hide a leak —
// but a test running in parallel with this one can still be blamed for
// the goroutines it starts.
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
	before := make(map[uint64]bool)
	for _, g := range goroutines() {
		before[g.id] = true
	}
	t.Cleanup(func() {
		deadline := time.Now().Add(wait)
		for {
			var started [][]byte
			for _, g := range goroutines() {
				if !before[g.id] {
					started = append(started, g.stack)
				}
			}
			if len(started) == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("goroutine leak: %d goroutines started during the test still running %v after it ended\n%s",
					len(started), wait, bytes.Join(started, []byte("\n\n")))
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// WaitParked polls until at least n goroutines are blocked in
// sync.Cond.Wait with fn on their stack (fn as a trace prints it:
// "mddserve.(*Server).worker"), and reports whether that happened
// within d. A wakeup test waits for this before it makes the call that
// must deliver the wakeup: a worker that has not parked yet needs none,
// so without the wait the test could pass with the wakeup removed.
func WaitParked(fn string, n int, d time.Duration) bool {
	frame := []byte(fn + "(")
	deadline := time.Now().Add(d)
	for {
		parked := 0
		for _, g := range goroutines() {
			head, _, _ := bytes.Cut(g.stack, []byte("\n"))
			if bytes.Contains(head, []byte("[sync.Cond.Wait")) && bytes.Contains(g.stack, frame) {
				parked++
			}
		}
		if parked >= n {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// goroutine is one entry of a full stack dump.
type goroutine struct {
	id    uint64
	stack []byte
}

// goroutines returns every user goroutine.
func goroutines() []goroutine {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return parseStacks(buf[:n])
		}
		buf = make([]byte, 2*len(buf))
	}
}

// parseStacks splits a runtime.Stack dump into its records, separated by
// a blank line and each headed "goroutine <id> [<state>]:".
func parseStacks(dump []byte) []goroutine {
	var gs []goroutine
	for _, rec := range bytes.Split(dump, []byte("\n\n")) {
		head, _, _ := bytes.Cut(rec, []byte(" ["))
		id, err := strconv.ParseUint(string(bytes.TrimPrefix(head, []byte("goroutine "))), 10, 64)
		if err != nil {
			continue // not a "goroutine <id> [...]" record
		}
		gs = append(gs, goroutine{id, rec})
	}
	return gs
}
