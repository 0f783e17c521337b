// Package mddserve is the ctxflow fixture: every blocking construct the
// analyzer classifies, in both its flagged and its cancellable form.
package mddserve

import (
	"context"
	"sync"
	"time"
)

// workerLoop is the seeded-deadlock negative control: an uncancellable
// worker loop that wedges on shutdown.
func workerLoop(tasks chan int) {
	for {
		select { // want `select can block with no ctx\.Done\(\), deadline, or default arm`
		case t := <-tasks:
			_ = t
		}
	}
}

// cancellableLoop is workerLoop done right.
func cancellableLoop(ctx context.Context, tasks chan int) {
	for {
		select {
		case t := <-tasks:
			_ = t
		case <-ctx.Done():
			return
		}
	}
}

func bareRecv(tasks chan int) {
	for {
		t := <-tasks // want `blocking channel receive is not cancellable`
		_ = t
	}
}

func bareSend(out chan int, v int) {
	out <- v // want `blocking channel send is not cancellable`
}

// waitDone blocks on cancellation itself: that IS the ctx wait.
func waitDone(ctx context.Context) {
	<-ctx.Done()
}

// trySend never blocks: the default arm bails out.
func trySend(out chan int, v int) {
	select {
	case out <- v:
	default:
	}
}

// deadlineWait is bounded by time.After.
func deadlineWait(tasks chan int, d time.Duration) {
	select {
	case t := <-tasks:
		_ = t
	case <-time.After(d):
	}
}

// waitCancel: a for { select } with only a ctx.Done() arm.
func waitCancel(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		}
	}
}

func pollForever(d time.Duration) {
	for {
		time.Sleep(d) // want `sleep inside a loop with no cancellation point`
	}
}

// pollCtx checks the context every iteration.
func pollCtx(ctx context.Context, d time.Duration) {
	for {
		time.Sleep(d)
		if ctx.Err() != nil {
			return
		}
	}
}

// sleepCtx observes cancellation right after the wait.
func sleepCtx(ctx context.Context, d time.Duration) error {
	time.Sleep(d)
	return ctx.Err()
}

// backoff clamps the delay: deadline-bounded without a context.
func backoff(d, max time.Duration) {
	if d > max {
		d = max
	}
	time.Sleep(d)
}

func napForever(d time.Duration) {
	time.Sleep(d) // want `backoff sleep with no subsequent context check and no clamped duration`
}

type pool struct {
	mu   sync.Mutex
	cond *sync.Cond
}

func (p *pool) park() {
	p.cond.Wait() // want `sync\.Cond\.Wait cannot observe context cancellation`
}

func (p *pool) parkOK() {
	//lint:ctx-ok fixture: Close broadcasts after setting closed, so the wait is bounded
	p.cond.Wait()
}

// handOff's escape sits in its doc comment, so it covers the whole
// function: the bare send four lines below it is excused, not reported.
//
//lint:ctx-ok fixture: the one reader drains out until close, so every send is bounded
func handOff(out chan int, work []int) {
	for _, w := range work {
		w *= 2
		out <- w
	}
}

// checksCtx observes cancellation on every path, so passing it a ctx is
// itself a cancellation point for the caller.
func checksCtx(ctx context.Context) error {
	return ctx.Err()
}

func loopWithHelper(ctx context.Context, d time.Duration) {
	for {
		time.Sleep(d)
		if checksCtx(ctx) != nil {
			return
		}
	}
}

// blockingHelper may block; calling it from a loop inherits the block.
func blockingHelper(tasks chan int) int {
	return <-tasks // want `blocking channel receive is not cancellable`
}

func loopCallsBlocker(tasks chan int) {
	for {
		_ = blockingHelper(tasks) // want `call to mddserve\.blockingHelper \(which may block\) inside a loop with no cancellation point`
	}
}

// spawnWorker: go'd closures are regions of their own.
func spawnWorker(tasks chan int) {
	go func() {
		for {
			t := <-tasks // want `blocking channel receive is not cancellable`
			_ = t
		}
	}()
}
