// Package opstore is the tiered out-of-core operator store: it serves
// tlr.Tile panels from a paged on-disk kernel (tlrio's "TLRP" format)
// under a byte budget, so survey-scale operators — 110 GB compressed in
// the paper, against hosts with far less RAM — run the ordinary TLR-MVM
// kernels with only a bounded working set resident.
//
// The policy is admission while the budget has room. A miss whose tile
// fits beside the resident bytes reserves them before the read, is
// loaded once (concurrent faults on it wait for that one read) and stays
// resident for the life of the store. A miss that does not fit is read
// and handed out without being kept: into the caller's tlr.TileScratch
// when it passed one — the sequential product does, so that read takes
// no lock and allocates nothing — and into storage the caller owns
// otherwise. Nothing is ever evicted. The products this store serves
// sweep the whole operator in one fixed order, once per LSQR iteration,
// and on a cyclic scan larger than the cache LRU keeps exactly the tiles
// the next sweep reaches last, so every tile is evicted before its
// reuse; a fixed resident set hits on every one of its tiles, every
// sweep.
//
// The hit path is one atomic pointer load and two counter bumps —
// lock-free and allocation-free, registered in the hot-path registry
// (internal/testkit/hotpath.go) like every other steady-state kernel.
// Store build time chooses each tile's on-disk precision tier
// (fp32/fp16/bf16) via a precision.Policy passed to tlrio.WritePaged.
package opstore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/tlr"
)

// Cache metrics, registered once at package scope. All
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
	// it: a tile's bytes are reserved before it is read, and only when
	// they fit.
	Budget int64
	// Load reads tile g from the backing store, into s when s is non-nil
	// and into storage of the tile's own otherwise.
	Load func(g int, s *tlr.TileScratch) (*tlr.Tile, error)
	// Size returns tile g's decoded footprint in bytes. Called once per
	// tile at cache construction, never on the serving paths.
	Size func(g int) int64
}

// Cache is the byte-budgeted tile cache. Safe for concurrent use.
type Cache struct {
	budget int64
	load   func(g int, s *tlr.TileScratch) (*tlr.Tile, error)
	sizes  []int64
	// tiles[g] is tile g once admitted; the pointer is the whole hit path.
	tiles []atomic.Pointer[tlr.Tile]

	hits     atomic.Int64
	misses   atomic.Int64
	streamed atomic.Int64
	resident atomic.Int64

	// mu serializes admission: the fit check, the reservation and the
	// load singleflighting. Neither a hit nor a streamed read touches it.
	mu      sync.Mutex
	loading map[int]chan struct{}
}

// newCache builds a cache. Sizes are precomputed so the serving paths
// never call back into the config.
func newCache(cfg CacheConfig) (*Cache, error) {
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
		tiles:   make([]atomic.Pointer[tlr.Tile], cfg.N),
		loading: make(map[int]chan struct{}),
	}
	for g := range c.sizes {
		c.sizes[g] = cfg.Size(g)
	}
	return c, nil
}

// Tile returns tile g: the resident tile once admitted (admitting it
// now if the budget has room), else a fresh read the caller owns.
// The hit path is one atomic pointer load plus two counter bumps,
// lock-free and allocation-free (hot-path registry kernel
// opstore.tile_hit).
func (c *Cache) Tile(g int) (*tlr.Tile, error) { return c.get(g, nil) }

// get is Tile for a caller that may pass a scratch: a tile that is not
// admitted is then read into s, valid until s is read into again.
func (c *Cache) get(g int, s *tlr.TileScratch) (*tlr.Tile, error) {
	if t := c.tiles[g].Load(); t != nil {
		c.hit()
		return t, nil
	}
	// Resident bytes shrink only when a failed load gives its reservation
	// back, so a tile that does not fit now is streamed without taking
	// the lock to ask again.
	if c.resident.Load()+c.sizes[g] > c.budget {
		return c.stream(g, s)
	}
	return c.admit(g, s)
}

func (c *Cache) hit() {
	c.hits.Add(1)
	obsHits.Add(1)
}

// stream reads tile g without keeping it.
func (c *Cache) stream(g int, s *tlr.TileScratch) (*tlr.Tile, error) {
	t, err := c.load(g, s)
	if err != nil {
		return nil, err
	}
	c.misses.Add(1)
	c.streamed.Add(1)
	obsMisses.Add(1)
	obsEvictions.Add(1)
	return t, nil
}

// admit is the miss path of a tile that fit when get looked: under mu,
// either another caller has published it (a hit — that flight paid the
// miss), or is loading it (wait, then look again), or it still fits and
// this caller reserves its bytes and loads it into storage of its own —
// or it no longer fits and is streamed after all.
func (c *Cache) admit(g int, s *tlr.TileScratch) (*tlr.Tile, error) {
	size := c.sizes[g]
	for {
		c.mu.Lock()
		if t := c.tiles[g].Load(); t != nil {
			c.mu.Unlock()
			c.hit()
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
	res := c.resident.Load() + size
	if res > c.budget {
		c.mu.Unlock()
		return c.stream(g, s)
	}
	c.resident.Store(res)
	obsResident.Set(res)
	ch := make(chan struct{})
	c.loading[g] = ch
	c.mu.Unlock()

	t, err := c.load(g, nil)

	c.mu.Lock()
	delete(c.loading, g)
	close(ch)
	if err != nil {
		obsResident.Set(c.resident.Add(-size))
		c.mu.Unlock()
		return nil, err
	}
	c.tiles[g].Store(t)
	c.misses.Add(1)
	obsMisses.Add(1)
	c.mu.Unlock()
	return t, nil
}

// CacheStats is a point-in-time snapshot of the cache counters, kept
// locally (in addition to the obs metrics) so callers can interrogate a
// cache while metrics recording is disabled.
type CacheStats struct {
	// Hits counts requests served from a resident tile; Misses every
	// read from the backing store, admitted or not.
	Hits, Misses int64
	// Evictions counts the misses that were not admitted: tiles read,
	// used once and dropped — evicted on arrival, since nothing resident
	// ever is. Misses − Evictions is the number of resident tiles.
	Evictions     int64
	ResidentBytes int64
	Budget        int64
}

// stats snapshots the counters.
func (c *Cache) stats() CacheStats {
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.streamed.Load(),
		ResidentBytes: c.resident.Load(),
		Budget:        c.budget,
	}
}

// Resident reports whether tile g is currently cached (test hook).
func (c *Cache) Resident(g int) bool { return c.tiles[g].Load() != nil }
