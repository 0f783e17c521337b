package opstore

import (
	"errors"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dense"
	"repro/internal/tlr"
	"repro/internal/tlrio"
)

// admissionModel replays the cache's contract in plain single-threaded
// code: a miss is admitted when its bytes fit beside the resident ones
// and streamed otherwise, a failed read changes nothing, and nothing
// resident ever leaves. The property test runs a randomized operation
// stream against both and requires the real cache's counters and
// residency to match the model exactly.
type admissionModel struct {
	budget   int64
	sizes    []int64
	resident map[int]bool

	hits, misses, streamed int64
	bytes                  int64
}

// access models one request for tile g whose backing read fails when
// fail is set; it reports whether the request hit, and whether a read
// that does not hit was admitted.
func (s *admissionModel) access(g int, fail bool) (hit, admitted bool) {
	switch {
	case s.resident[g]:
		s.hits++
		return true, false
	case fail:
		return false, false
	case s.bytes+s.sizes[g] <= s.budget:
		s.resident[g] = true
		s.bytes += s.sizes[g]
		s.misses++
		return false, true
	default:
		s.misses++
		s.streamed++
		return false, false
	}
}

// taggedLoad is a test Load whose tiles carry their index in U[0,0]:
// read into the scratch when the cache passes one, into a fresh tile
// otherwise. It fails while fail is set.
func taggedLoad(calls *atomic.Int64, fail *atomic.Bool) func(g int, s *tlr.TileScratch) (*tlr.Tile, error) {
	return func(g int, s *tlr.TileScratch) (*tlr.Tile, error) {
		if fail != nil && fail.Load() {
			return nil, errors.New("injected read failure")
		}
		calls.Add(1)
		if s == nil {
			s = &tlr.TileScratch{Data: make([]complex64, 2)}
		}
		s.Data[0], s.Data[1] = complex(float32(g), 0), 0
		return s.View(1, 1, 1, s.Data[:2]), nil
	}
}

// TestCacheProperty drives a seeded random operation stream — requests
// with and without a scratch, some of whose reads fail, over tiles of
// mixed size and one larger than the whole budget — through the cache
// and the admission model, checking after every step that resident bytes
// never exceed the budget, that the counters, resident bytes and
// resident set agree with the model exactly, that every tile carries its
// own index, and that a tile is in the caller's scratch exactly when it
// was streamed to a caller that passed one.
func TestCacheProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	const n = 24
	sizes := make([]int64, n)
	var maxSize int64
	for g := range sizes {
		sizes[g] = int64(100 + rng.Intn(300))
		maxSize = max(maxSize, sizes[g])
	}
	budget := 4 * maxSize
	sizes[n-1] = budget + 1 // served every time, never resident
	var loadCalls atomic.Int64
	var fail atomic.Bool
	c, err := newCache(CacheConfig{
		N:      n,
		Budget: budget,
		Load:   taggedLoad(&loadCalls, &fail),
		Size:   func(g int) int64 { return sizes[g] },
	})
	if err != nil {
		t.Fatal(err)
	}
	model := &admissionModel{budget: budget, sizes: sizes, resident: map[int]bool{}}
	scratch := &tlr.TileScratch{Data: make([]complex64, 2)}
	for op := 0; op < 5000; op++ {
		// Zipf-ish skew so the stream has both a hot set and misses.
		g := rng.Intn(n)
		if rng.Float64() < 0.5 {
			g = rng.Intn(n / 4)
		}
		var s *tlr.TileScratch
		if rng.Float64() < 0.5 {
			s = scratch
		}
		failing := rng.Float64() < 0.05
		fail.Store(failing)
		tile, err := c.get(g, s)
		hit, admitted := model.access(g, failing)
		switch {
		case !hit && failing:
			if err == nil {
				t.Fatalf("op %d: tile %d: a failed read returned no error", op, g)
			}
		case err != nil:
			t.Fatalf("op %d: tile %d: %v", op, g, err)
		default:
			if got := int(real(tile.U.At(0, 0))); got != g {
				t.Fatalf("op %d: tile %d carries tag %d", op, g, got)
			}
			inScratch := s != nil && &tile.U.Data[0] == &s.Data[0]
			if want := s != nil && !hit && !admitted; inScratch != want {
				t.Fatalf("op %d: tile %d in the caller's scratch: %v, want %v (hit %v, admitted %v)",
					op, g, inScratch, want, hit, admitted)
			}
		}
		st := c.stats()
		if st.ResidentBytes > budget {
			t.Fatalf("op %d: resident %d exceeds budget %d", op, st.ResidentBytes, budget)
		}
		if st.Hits != model.hits || st.Misses != model.misses || st.Evictions != model.streamed {
			t.Fatalf("op %d: counters (h=%d m=%d streamed=%d) diverged from the model (h=%d m=%d streamed=%d)",
				op, st.Hits, st.Misses, st.Evictions, model.hits, model.misses, model.streamed)
		}
		if st.ResidentBytes != model.bytes {
			t.Fatalf("op %d: resident %d, model %d", op, st.ResidentBytes, model.bytes)
		}
		for g := 0; g < n; g++ {
			if c.Resident(g) != model.resident[g] {
				t.Fatalf("op %d: tile %d resident=%v, model says %v", op, g, c.Resident(g), model.resident[g])
			}
		}
	}
	if got := loadCalls.Load(); got != model.misses {
		t.Fatalf("backing store read %d times for %d misses (singleflight broken)", got, model.misses)
	}
	if model.streamed == 0 || model.hits == 0 || len(model.resident) == 0 {
		t.Fatalf("stream never exercised every path: %+v", c.stats())
	}
}

// TestStressCacheConcurrentReaders hammers one small-budget cache from
// many goroutines under the race detector: concurrent hits, admissions
// of the same tile (singleflight), and streamed reads into each
// goroutine's own scratch and into fresh tiles. Each load tags its tile
// with the global index so readers can detect cross-wired results, and
// a streamed tile must be in the reader's scratch.
func TestStressCacheConcurrentReaders(t *testing.T) {
	const n = 32
	var loadCalls atomic.Int64
	c, err := newCache(CacheConfig{
		N:      n,
		Budget: 6 * 128,
		Load:   taggedLoad(&loadCalls, nil),
		Size:   func(g int) int64 { return 128 },
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
			scratch := &tlr.TileScratch{Data: make([]complex64, 2)}
			for op := 0; op < 2000; op++ {
				g := rng.Intn(n)
				s := scratch
				if op%7 == 0 {
					s = nil
				}
				tile, err := c.get(g, s)
				if err != nil {
					t.Error(err)
					return
				}
				if int(real(tile.U.At(0, 0))) != g {
					t.Errorf("tile %d carries tag %v", g, tile.U.At(0, 0))
					return
				}
				if s != nil && !c.Resident(g) && &tile.U.Data[0] != &s.Data[0] {
					t.Errorf("tile %d was neither resident nor read into the scratch", g)
					return
				}
				if st := c.stats(); st.ResidentBytes > st.Budget {
					t.Errorf("resident %d exceeds budget %d", st.ResidentBytes, st.Budget)
					return
				}
			}
		}(int64(131 + w))
	}
	wg.Wait()
	st := c.stats()
	if st.Misses != loadCalls.Load() {
		t.Fatalf("%d misses but %d backing loads", st.Misses, loadCalls.Load())
	}
	if st.Hits+st.Misses != 8*2000 {
		t.Fatalf("accounted %d accesses of %d", st.Hits+st.Misses, 8*2000)
	}
	if resident := st.Misses - st.Evictions; resident != st.ResidentBytes/128 {
		t.Fatalf("%d misses kept, %d bytes resident", resident, st.ResidentBytes)
	}
}

// TestCacheConfigValidation pins the constructor's rejection paths.
func TestCacheConfigValidation(t *testing.T) {
	load := func(int, *tlr.TileScratch) (*tlr.Tile, error) {
		return &tlr.Tile{U: dense.New(1, 1), V: dense.New(1, 1)}, nil
	}
	size := func(int) int64 { return 1 }
	bad := []CacheConfig{
		{N: 0, Budget: 1, Load: load, Size: size},
		{N: 1, Budget: 0, Load: load, Size: size},
		{N: 1, Budget: 1, Size: size},
		{N: 1, Budget: 1, Load: load},
	}
	for i, cfg := range bad {
		if _, err := newCache(cfg); err == nil {
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
