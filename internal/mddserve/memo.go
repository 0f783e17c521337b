package mddserve

import (
	"context"
	"sync"

	"repro/internal/obs"
)

// memo is a singleflight cache: the first caller of a key computes its
// value on its own goroutine, later callers wait for that value or for
// their own context, and a failed computation is forgotten — its waiters
// get the error, the next caller computes again.
type memo[V any] struct {
	hits, misses *obs.Counter

	mu sync.Mutex
	m  map[string]*flight[V]
}

// flight is one key's computation; done closes once val and err are set.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

func newMemo[V any](hits, misses *obs.Counter) *memo[V] {
	return &memo[V]{hits: hits, misses: misses, m: map[string]*flight[V]{}}
}

// get returns key's value, calling fill when no caller has yet. The wait
// for another caller's fill ends early when ctx is done; fill itself
// does not watch ctx.
func (c *memo[V]) get(ctx context.Context, key string, fill func() (V, error)) (V, error) {
	c.mu.Lock()
	f, ok := c.m[key]
	if ok {
		c.mu.Unlock()
		c.hits.Add(1)
		select {
		case <-f.done:
			return f.val, f.err
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
	f = &flight[V]{done: make(chan struct{})}
	c.m[key] = f
	c.mu.Unlock()
	c.misses.Add(1)

	f.val, f.err = fill()
	if f.err != nil {
		c.mu.Lock()
		delete(c.m, key)
		c.mu.Unlock()
	}
	close(f.done)
	return f.val, f.err
}

// ready returns the values of the fills that have finished.
func (c *memo[V]) ready() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	var vals []V
	for _, f := range c.m {
		select {
		case <-f.done:
			vals = append(vals, f.val)
		default:
		}
	}
	return vals
}
