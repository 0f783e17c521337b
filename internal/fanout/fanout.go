// Package fanout is the tree's one index fan-out: run a body once per
// index of [0, n) on a bounded set of goroutines and return when all of
// them have. Stdlib-only and a leaf, so every layer that has n
// independent items — frequencies (mdc), tiles (tlr), tile rows
// (tlrmmm), virtual sources (mdd), survey frequencies (seismic), grid
// strips (fdtd) — dispatches them the same way. Long-lived pools with
// failure handling (batch.ShardRunner, the mddserve workers) are a
// different thing and live with their owners.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// PoolSize resolves a workers setting (<= 0 = GOMAXPROCS) against n
// independent items.
func PoolSize(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

// Do runs body(w, i) once for every index i in [0, n) on
// PoolSize(n, workers) workers pulling from a shared index, in
// increasing order; w is the worker's index, for per-worker scratch. A
// pool of one runs inline on the caller's goroutine, so a one-worker
// caller spawns nothing.
//
// A body that panics panics on the caller's goroutine, at any pool
// size, so the caller can recover it: a worker recovers the value, the
// pool stops handing out indices, and once every worker has returned Do
// re-panics with the first value recovered.
func Do(n, workers int, body func(w, i int)) {
	workers = PoolSize(n, workers)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicked bool
		first    any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					next.Store(int64(n))
					mu.Lock()
					if !panicked {
						panicked, first = true, v
					}
					mu.Unlock()
				}
			}()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				body(w, i)
			}
		}(w)
	}
	wg.Wait()
	if panicked {
		panic(first)
	}
}
