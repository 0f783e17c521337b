package opstore

import (
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dense"
	"repro/internal/tlr"
	"repro/internal/tlrio"
)

// shadowCache replays the cache's contract in plain single-threaded
// code: LRU ticks, byte accounting, pin-aware eviction. The property
// test runs a randomized operation stream against both and requires the
// real cache's counters and residency to match the shadow exactly.
type shadowCache struct {
	budget   int64
	sizes    []int64
	resident map[int]bool
	lastUse  map[int]int64
	pins     map[int]int
	tick     int64

	hits, misses, evictions int64
	bytes                   int64
}

func (s *shadowCache) access(g int) (hit bool) {
	if s.resident[g] {
		s.tick++
		s.lastUse[g] = s.tick
		s.hits++
		return true
	}
	s.tick++
	s.resident[g] = true
	s.lastUse[g] = s.tick
	s.misses++
	s.bytes += s.sizes[g]
	for s.bytes > s.budget {
		victim, oldest := -1, int64(0)
		for r := range s.resident {
			if s.pins[r] > 0 {
				continue
			}
			if u := s.lastUse[r]; victim < 0 || u < oldest {
				victim, oldest = r, u
			}
		}
		if victim < 0 {
			break
		}
		delete(s.resident, victim)
		s.bytes -= s.sizes[victim]
		s.evictions++
	}
	return false
}

// TestCacheProperty drives a seeded random operation stream (lookups,
// pins, unpins) through the cache and the shadow model, checking after
// every step that resident bytes never exceed the budget, every pinned
// tile is resident, and the hit/miss/eviction counters and the resident
// set agree with the shadow exactly.
func TestCacheProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	const n = 24
	sizes := make([]int64, n)
	var maxSize int64
	for g := range sizes {
		sizes[g] = int64(100 + rng.Intn(300))
		if sizes[g] > maxSize {
			maxSize = sizes[g]
		}
	}
	// Budget ≥ 4 max-size tiles with at most 2 concurrent pins, so the
	// strict resident ≤ budget invariant always has an eviction victim.
	budget := 4 * maxSize
	var loadCalls atomic.Int64
	c, err := NewCache(CacheConfig{
		N:      n,
		Budget: budget,
		Load: func(g int) (*tlr.Tile, error) {
			loadCalls.Add(1)
			return &tlr.Tile{U: dense.New(1, 1), V: dense.New(1, 1)}, nil
		},
		Size: func(g int) int64 { return sizes[g] },
	})
	if err != nil {
		t.Fatal(err)
	}
	shadow := &shadowCache{
		budget:   budget,
		sizes:    sizes,
		resident: map[int]bool{},
		lastUse:  map[int]int64{},
		pins:     map[int]int{},
	}
	var pinned []int
	for op := 0; op < 5000; op++ {
		switch r := rng.Float64(); {
		case r < 0.15 && len(pinned) < 2:
			g := rng.Intn(n)
			if _, err := c.Pin(g); err != nil {
				t.Fatal(err)
			}
			shadow.pins[g]++
			shadow.access(g)
			pinned = append(pinned, g)
		case r < 0.30 && len(pinned) > 0:
			i := rng.Intn(len(pinned))
			g := pinned[i]
			c.Unpin(g)
			shadow.pins[g]--
			pinned = append(pinned[:i], pinned[i+1:]...)
		default:
			// Zipf-ish skew so the stream has both a hot set and misses.
			g := rng.Intn(n)
			if rng.Float64() < 0.5 {
				g = rng.Intn(n / 4)
			}
			if _, err := c.Tile(g); err != nil {
				t.Fatal(err)
			}
			shadow.access(g)
		}
		st := c.Stats()
		if st.ResidentBytes > budget {
			t.Fatalf("op %d: resident %d exceeds budget %d", op, st.ResidentBytes, budget)
		}
		for _, g := range pinned {
			if !c.Resident(g) {
				t.Fatalf("op %d: pinned tile %d was evicted", op, g)
			}
		}
		if st.Hits != shadow.hits || st.Misses != shadow.misses || st.Evictions != shadow.evictions {
			t.Fatalf("op %d: counters (h=%d m=%d e=%d) diverged from shadow (h=%d m=%d e=%d)",
				op, st.Hits, st.Misses, st.Evictions, shadow.hits, shadow.misses, shadow.evictions)
		}
		if st.ResidentBytes != shadow.bytes {
			t.Fatalf("op %d: resident %d, shadow %d", op, st.ResidentBytes, shadow.bytes)
		}
		for g := 0; g < n; g++ {
			if c.Resident(g) != shadow.resident[g] {
				t.Fatalf("op %d: tile %d resident=%v, shadow says %v", op, g, c.Resident(g), shadow.resident[g])
			}
		}
	}
	if got := loadCalls.Load(); got != shadow.misses {
		t.Fatalf("backing store loaded %d times for %d misses (singleflight broken)", got, shadow.misses)
	}
}

// unitCache is a cache over n unit-size tiles with room for budget of
// them, paired with its shadow model.
func unitCache(t *testing.T, n int, budget int64) (*Cache, *shadowCache) {
	t.Helper()
	sizes := make([]int64, n)
	for g := range sizes {
		sizes[g] = 1
	}
	c, err := NewCache(CacheConfig{
		N:      n,
		Budget: budget,
		Load: func(g int) (*tlr.Tile, error) {
			return &tlr.Tile{U: dense.New(1, 1), V: dense.New(1, 1)}, nil
		},
		Size: func(g int) int64 { return 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, &shadowCache{
		budget:   budget,
		sizes:    sizes,
		resident: map[int]bool{},
		lastUse:  map[int]int64{},
		pins:     map[int]int{},
	}
}

// agree requires the cache's counters and resident set to equal the
// shadow's.
func agree(t *testing.T, step string, c *Cache, s *shadowCache) {
	t.Helper()
	st := c.Stats()
	if st.Hits != s.hits || st.Misses != s.misses || st.Evictions != s.evictions || st.ResidentBytes != s.bytes {
		t.Fatalf("%s: cache (h=%d m=%d e=%d bytes=%d), shadow (h=%d m=%d e=%d bytes=%d)",
			step, st.Hits, st.Misses, st.Evictions, st.ResidentBytes, s.hits, s.misses, s.evictions, s.bytes)
	}
	for g := range s.sizes {
		if c.Resident(g) != s.resident[g] {
			t.Fatalf("%s: tile %d resident=%v, shadow says %v", step, g, c.Resident(g), s.resident[g])
		}
	}
}

// TestCacheEveryResidentTilePinned pins one tile more than the budget
// holds: eviction finds no victim, so the load returns — rather than
// looping over records it cannot drop — with the cache over budget and
// nothing evicted. Once a pin is released the next miss reclaims what
// LRU order says, overshoot included, and the still-pinned tiles stay.
func TestCacheEveryResidentTilePinned(t *testing.T) {
	c, shadow := unitCache(t, 8, 3)
	for g := 0; g < 4; g++ {
		if _, err := c.Pin(g); err != nil {
			t.Fatal(err)
		}
		shadow.pins[g]++
		shadow.access(g)
		agree(t, "pinning", c, shadow)
	}
	if st := c.Stats(); st.Evictions != 0 || st.ResidentBytes != 4 {
		t.Fatalf("all pinned: evictions=%d resident=%d, want 0 and 4 (one over budget)", st.Evictions, st.ResidentBytes)
	}
	c.Unpin(1)
	shadow.pins[1]--
	for _, g := range []int{5, 6} {
		if _, err := c.Tile(g); err != nil {
			t.Fatal(err)
		}
		shadow.access(g)
		agree(t, "after Unpin", c, shadow)
	}
	if c.Resident(1) || !c.Resident(0) || !c.Resident(2) || !c.Resident(3) {
		t.Fatalf("after Unpin: resident 0=%v 1=%v 2=%v 3=%v, want only the unpinned tile gone",
			c.Resident(0), c.Resident(1), c.Resident(2), c.Resident(3))
	}
	if st := c.Stats(); st.ResidentBytes > st.Budget {
		t.Fatalf("after Unpin: resident %d still over budget %d", st.ResidentBytes, st.Budget)
	}
}

// TestCacheStaleRecordAcrossReload walks one tile through the states in
// which its eviction record lags its real recency: hit after load (the
// record's key is older than lastUse, so a key-order eviction would take
// it too early), evicted, reloaded, hit again, and pinned while its
// record is the oldest. Each step must match the exact-LRU shadow.
func TestCacheStaleRecordAcrossReload(t *testing.T) {
	c, shadow := unitCache(t, 8, 3)
	touch := func(step string, gs ...int) {
		t.Helper()
		for _, g := range gs {
			if _, err := c.Tile(g); err != nil {
				t.Fatal(err)
			}
			shadow.access(g)
			agree(t, step, c, shadow)
		}
	}
	touch("fill", 0, 1, 2)
	touch("hit 0 — its record now lags", 0)
	touch("evicts 1, not 0", 3)
	if !c.Resident(0) || c.Resident(1) {
		t.Fatalf("tile 0 was hit after tile 1 but resident 0=%v 1=%v", c.Resident(0), c.Resident(1))
	}
	touch("evicts 2, then 0", 4, 5)
	if c.Resident(0) {
		t.Fatal("tile 0 still resident after three newer tiles")
	}
	touch("reload 0, hit it and 4", 0, 0, 4)
	touch("evicts 5, the only tile not touched since", 6)
	if c.Resident(5) || !c.Resident(0) || !c.Resident(4) {
		t.Fatalf("resident 0=%v 4=%v 5=%v, want 5 evicted", c.Resident(0), c.Resident(4), c.Resident(5))
	}
	// tile 0 is now the oldest; pinned, it is set aside and the next
	// oldest goes instead — and it is still evictable after the Unpin
	if _, err := c.Pin(0); err != nil {
		t.Fatal(err)
	}
	shadow.pins[0]++
	shadow.access(0)
	touch("pinned oldest is skipped", 7, 1)
	if !c.Resident(0) {
		t.Fatal("pinned tile 0 evicted")
	}
	c.Unpin(0)
	shadow.pins[0]--
	touch("evictable again after Unpin", 2, 3, 5)
	if c.Resident(0) {
		t.Fatal("tile 0 survived three newer tiles after its Unpin")
	}
}

// TestStressCacheConcurrentReaders hammers one small-budget cache from
// many goroutines under the race detector: concurrent hits, misses on
// the same tile (singleflight), evictions, and pin/unpin cycles. Each
// load tags its tile with the global index so readers can detect
// cross-wired results.
func TestStressCacheConcurrentReaders(t *testing.T) {
	const n = 32
	var loadCalls atomic.Int64
	c, err := NewCache(CacheConfig{
		N:      n,
		Budget: 6 * 128,
		Load: func(g int) (*tlr.Tile, error) {
			loadCalls.Add(1)
			u := dense.New(1, 1)
			u.Set(0, 0, complex(float32(g), 0))
			return &tlr.Tile{U: u, V: dense.New(1, 1)}, nil
		},
		Size: func(g int) int64 { return 128 },
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < 2000; op++ {
				g := rng.Intn(n)
				if op%7 == 0 {
					tile, err := c.Pin(g)
					if err != nil {
						t.Error(err)
						return
					}
					if int(real(tile.U.At(0, 0))) != g {
						t.Errorf("pinned tile %d carries tag %v", g, tile.U.At(0, 0))
						return
					}
					if !c.Resident(g) {
						t.Errorf("tile %d not resident while pinned", g)
						return
					}
					c.Unpin(g)
					continue
				}
				tile, err := c.Tile(g)
				if err != nil {
					t.Error(err)
					return
				}
				if int(real(tile.U.At(0, 0))) != g {
					t.Errorf("tile %d carries tag %v", g, tile.U.At(0, 0))
					return
				}
			}
		}(int64(131 + w))
	}
	wg.Wait()
	st := c.Stats()
	if st.ResidentBytes > st.Budget {
		t.Fatalf("resident %d exceeds budget %d after drain", st.ResidentBytes, st.Budget)
	}
	if st.Misses != loadCalls.Load() {
		t.Fatalf("%d misses but %d backing loads", st.Misses, loadCalls.Load())
	}
	if st.Hits+st.Misses < 8*2000 {
		t.Fatalf("accounted %d accesses of %d", st.Hits+st.Misses, 8*2000)
	}
}

// TestCacheConfigValidation pins the constructor's rejection paths.
func TestCacheConfigValidation(t *testing.T) {
	load := func(int) (*tlr.Tile, error) { return nil, nil }
	size := func(int) int64 { return 1 }
	bad := []CacheConfig{
		{N: 0, Budget: 1, Load: load, Size: size},
		{N: 1, Budget: 0, Load: load, Size: size},
		{N: 1, Budget: 1, Size: size},
		{N: 1, Budget: 1, Load: load},
	}
	for i, cfg := range bad {
		if _, err := NewCache(cfg); err == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
	// the store constructor's twin of N: 0 — a kernel of no matrices
	// writes a valid file that Open must refuse
	path := filepath.Join(t.TempDir(), "empty.tlrp")
	if err := WriteFile(path, &tlrio.Kernel{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, 1); err == nil {
		t.Fatal("empty kernel opened")
	}
}
