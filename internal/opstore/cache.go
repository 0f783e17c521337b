// Package opstore is the tiered out-of-core operator store: it serves
// tlr.Tile panels from a paged on-disk kernel (tlrio's "TLRP" format)
// through a byte-budgeted LRU cache, so survey-scale operators — 110 GB
// compressed in the paper, against hosts with far less RAM — run the
// ordinary TLR-MVM kernels with only a bounded working set resident.
//
// The cache-hit path is lock-free (one atomic pointer load, one LRU
// tick, two counter bumps — all sync/atomic) and allocation-free; it is
// registered in the hot-path registry (internal/testkit/hotpath.go) like
// every other steady-state kernel. Misses take a mutex, singleflight the
// page read so concurrent faults on one tile decode it once, and evict
// least-recently-used unpinned tiles until the decoded bytes fit the
// budget again. The victim is found without a scan: every resident tile
// has one record in a min-heap keyed by the LRU tick seen when the
// record was last pushed or refreshed, hits leave the heap alone, and
// eviction refreshes a stale root before trusting it (evictLocked) — a
// miss costs O(log resident) under the mutex, however many tiles the
// store holds. Store build time chooses each tile's on-disk precision
// tier (fp32/fp16/bf16) via a precision.Policy passed to
// tlrio.WritePaged.
package opstore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/tlr"
)

// Cache metrics, registered once at package scope (obshygiene). All
// recording is atomic and gated on obs.Enable, so the hot path stays
// allocation-free whether or not metrics are on.
var (
	obsHits      = obs.NewCounter("opstore.hits")
	obsMisses    = obs.NewCounter("opstore.misses")
	obsEvictions = obs.NewCounter("opstore.evictions")
	obsResident  = obs.NewGauge("opstore.bytes_resident")
)

// CacheConfig configures a tile cache over n tiles addressed by a flat
// global index.
type CacheConfig struct {
	// N is the number of cacheable tiles.
	N int
	// Budget is the decoded-bytes ceiling. Resident bytes never exceed
	// it, except transiently when the pinned tiles plus a single
	// in-flight load alone exceed it (eviction can only reclaim unpinned
	// tiles).
	Budget int64
	// Load materializes tile g from the backing store.
	Load func(g int) (*tlr.Tile, error)
	// Size returns tile g's decoded footprint in bytes. Called once per
	// tile at cache construction, never on the serving paths.
	Size func(g int) int64
}

// entry is one tile's cache slot. The tile pointer is the entire hit
// path; lastUse carries the global LRU tick; pins blocks eviction.
type entry struct {
	tile    atomic.Pointer[tlr.Tile]
	lastUse atomic.Int64
	pins    atomic.Int32
}

// Cache is the byte-budgeted LRU tile cache. Safe for concurrent use.
type Cache struct {
	budget  int64
	load    func(g int) (*tlr.Tile, error)
	sizes   []int64
	entries []entry
	tick    atomic.Int64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	resident  atomic.Int64

	// mu serializes the miss path: load singleflighting, publication,
	// and eviction. The hit path never touches it.
	mu      sync.Mutex
	loading map[int]chan struct{}
	// lru holds exactly one record per resident tile, min-ordered by
	// key. Under mu.
	lru lruHeap
}

// NewCache builds a cache. Sizes are precomputed so the serving paths
// never call back into the config.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("opstore: cache over %d tiles", cfg.N)
	}
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("opstore: non-positive byte budget %d", cfg.Budget)
	}
	if cfg.Load == nil || cfg.Size == nil {
		return nil, fmt.Errorf("opstore: cache needs both Load and Size")
	}
	c := &Cache{
		budget:  cfg.Budget,
		load:    cfg.Load,
		sizes:   make([]int64, cfg.N),
		entries: make([]entry, cfg.N),
		loading: make(map[int]chan struct{}),
	}
	for g := range c.sizes {
		c.sizes[g] = cfg.Size(g)
	}
	return c, nil
}

// Tile returns tile g, serving it from cache when resident. The hit
// path is one atomic pointer load plus bookkeeping atomics — lock-free
// and allocation-free (hot-path registry kernel opstore.tile_hit).
func (c *Cache) Tile(g int) (*tlr.Tile, error) {
	e := &c.entries[g]
	if t := e.tile.Load(); t != nil {
		e.lastUse.Store(c.tick.Add(1))
		c.hits.Add(1)
		obsHits.Add(1)
		return t, nil
	}
	return c.loadSlow(g)
}

// Pin returns tile g and holds it resident until the matching Unpin:
// eviction skips pinned tiles, so a caller walking a tile's panels
// across multiple kernel invocations cannot have it reclaimed
// underneath. Pins stack. The pin is taken under mu, which eviction
// holds from its pin check to the drop: a pin lands either before the
// check (and is skipped) or after the drop (and Tile reloads the tile,
// pinned from then on) — never between the two.
func (c *Cache) Pin(g int) (*tlr.Tile, error) {
	c.mu.Lock()
	c.entries[g].pins.Add(1)
	c.mu.Unlock()
	t, err := c.Tile(g)
	if err != nil {
		c.entries[g].pins.Add(-1)
	}
	return t, err
}

// Unpin releases one Pin of tile g.
func (c *Cache) Unpin(g int) {
	if c.entries[g].pins.Add(-1) < 0 {
		panic("opstore: Unpin without matching Pin")
	}
}

// loadSlow is the miss path: singleflight the load under the cache
// mutex, publish the decoded tile, then evict LRU unpinned tiles until
// the budget holds again. Decoding a tile from the page store
// necessarily allocates its panels; the steady-state hit path never
// reaches here.
func (c *Cache) loadSlow(g int) (*tlr.Tile, error) {
	for {
		c.mu.Lock()
		e := &c.entries[g]
		// Raced with a concurrent loader that published after our fast
		// path missed: that is a hit, the flight already paid the miss.
		if t := e.tile.Load(); t != nil {
			e.lastUse.Store(c.tick.Add(1))
			c.hits.Add(1)
			obsHits.Add(1)
			c.mu.Unlock()
			return t, nil
		}
		ch, inflight := c.loading[g]
		if !inflight {
			break
		}
		c.mu.Unlock()
		<-ch
		// The flight owner published (or failed); retry from the top so
		// a failure is re-attempted rather than silently shared.
	}
	ch := make(chan struct{})
	c.loading[g] = ch
	c.mu.Unlock()

	t, err := c.load(g)

	c.mu.Lock()
	delete(c.loading, g)
	close(ch)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	e := &c.entries[g]
	e.tile.Store(t)
	use := c.tick.Add(1)
	e.lastUse.Store(use)
	c.lru.push(lruRec{key: use, g: g})
	c.misses.Add(1)
	obsMisses.Add(1)
	res := c.resident.Add(c.sizes[g])
	if res > c.budget {
		res = c.evictLocked(res)
	}
	obsResident.Set(res)
	c.mu.Unlock()
	return t, nil
}

// evictLocked drops least-recently-used unpinned tiles until resident
// bytes fit the budget (or nothing evictable remains). Caller holds mu.
//
// A record's key is the tile's lastUse when the record was pushed or
// last refreshed; a hit only raises lastUse (two hits racing on one
// tile may leave the older of their adjacent ticks, as they could under
// the scan this replaces), so key ≤ lastUse for every record. A root
// whose key is current is therefore the true LRU tile: its lastUse
// equals the smallest key, and every other tile's lastUse is at least
// its own, larger, key. A stale root is re-keyed and sifted down
// instead, once per tile hit since its last refresh.
// Pinned roots are set aside for the duration of the call and pushed
// back before returning, so a fully pinned cache returns over budget
// after one pass rather than spinning.
func (c *Cache) evictLocked(res int64) int64 {
	var pinned []lruRec
	for res > c.budget && len(c.lru) > 0 {
		top := c.lru[0]
		e := &c.entries[top.g]
		if u := e.lastUse.Load(); u != top.key {
			c.lru.rekeyRoot(u)
			continue
		}
		c.lru.popRoot()
		if e.pins.Load() > 0 {
			pinned = append(pinned, top)
			continue
		}
		e.tile.Store(nil)
		res = c.resident.Add(-c.sizes[top.g])
		c.evictions.Add(1)
		obsEvictions.Add(1)
	}
	for _, r := range pinned {
		c.lru.push(r)
	}
	return res
}

// lruRec is one resident tile's eviction record.
type lruRec struct {
	key int64 // the tile's lastUse when pushed or last refreshed
	g   int
}

// lruHeap is a binary min-heap of records by key. Hand-rolled rather
// than container/heap: that API boxes every pushed record in an
// interface, one allocation per miss.
type lruHeap []lruRec

func (h *lruHeap) push(r lruRec) {
	a := append(*h, r)
	*h = a
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p].key <= a[i].key {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

// popRoot removes the minimum record.
func (h *lruHeap) popRoot() {
	a := *h
	n := len(a) - 1
	a[0] = a[n]
	*h = a[:n]
	h.siftDown()
}

// rekeyRoot replaces the root's key and restores heap order.
func (h *lruHeap) rekeyRoot(key int64) {
	(*h)[0].key = key
	h.siftDown()
}

func (h *lruHeap) siftDown() {
	a := *h
	i := 0
	for {
		c := 2*i + 1
		if c >= len(a) {
			return
		}
		if c+1 < len(a) && a[c+1].key < a[c].key {
			c++
		}
		if a[i].key <= a[c].key {
			return
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
}

// CacheStats is a point-in-time snapshot of the cache counters, kept
// locally (in addition to the obs metrics) so callers can interrogate a
// cache while metrics recording is disabled.
type CacheStats struct {
	Hits, Misses, Evictions int64
	ResidentBytes           int64
	Budget                  int64
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		ResidentBytes: c.resident.Load(),
		Budget:        c.budget,
	}
}

// Resident reports whether tile g is currently cached (test hook).
func (c *Cache) Resident(g int) bool { return c.entries[g].tile.Load() != nil }
