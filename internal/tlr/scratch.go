package tlr

import (
	"sync"
	"sync/atomic"
)

// Every product needs intermediates per call: one tile's projection
// segment, one tile row's block of A x for the normal product, the
// current tile row's tiles and, store-backed, one tile row of storage
// to read them into. Allocating them per product put makes on the hot
// path; they are hoisted here into a per-matrix free list so
// steady-state products allocate nothing (testkit's AllocsPerRun gate
// proves it). A channel free list rather than sync.Pool: the pool may
// drop entries at any GC, which makes AllocsPerRun nondeterministic,
// and rather than a single cached buffer because stress tests drive one
// Matrix from many goroutines concurrently. A set is MaxRank elements
// (512 B at rank 64) plus NT tile pointers and, store-backed, one tile
// row (0.8 MiB for a 64 MiB solve-ooc frequency), so a store-backed
// matrix holds the opstore budget plus one set per concurrent product.
const scratchPoolCap = 16

// scratchState is embedded in Matrix; a separate struct keeps the
// public Matrix fields (and keyed literals elsewhere) untouched.
type scratchState struct {
	sweepReady atomic.Uint32
	sweepMu    sync.Mutex
	sweepFree  chan *sweepScratch
	segLen     int // the largest tile rank
	arenaLen   int // store-backed: the largest tile row's slotLen sum; 0 in memory
}

// sweepScratch is one checkout of the sequential sweep's intermediates.
type sweepScratch struct {
	seg   []complex64
	row   []complex64 // one tile row's block of A x, for MulVecNormal
	tiles []*Tile     // the current tile row's tiles, one per tile column
	// slots[j] is what tile (i, j) of the current row is read into when
	// the source does not keep it: a piece of arena, which is as long
	// as the largest tile row, so the whole row stays valid until the
	// sweep moves on. The arena is sized once, up front: slots grown per
	// read churn garbage and raise the peak RSS far past one tile row.
	// Both nil for an in-memory matrix.
	slots []TileScratch
	arena []complex64
}

// getSweep checks a sweep set out of the free list, allocating a fresh
// one when the list is empty (first calls and bursts of concurrent
// products beyond the pool capacity). The list is created on first use
// behind an atomic flag rather than sync.Once: the fast path must stay
// free of the method-value closure `t.once.Do(...)` would allocate per
// call. Sizes come from the rank map, so a store-backed matrix reads no
// tile to size its scratch.
func (t *Matrix) getSweep() *sweepScratch {
	if t.sweepReady.Load() == 0 {
		t.sweepMu.Lock()
		if t.sweepReady.Load() == 0 {
			t.segLen = t.MaxRank()
			if t.src != nil {
				for i := 0; i < t.MT; i++ {
					var n int
					for j := 0; j < t.NT; j++ {
						n += t.slotLen(i, j)
					}
					t.arenaLen = max(t.arenaLen, n)
				}
			}
			t.sweepFree = make(chan *sweepScratch, scratchPoolCap)
			t.sweepReady.Store(1)
		}
		t.sweepMu.Unlock()
	}
	select {
	case s := <-t.sweepFree:
		return s
	default:
	}
	s := &sweepScratch{
		seg:   make([]complex64, t.segLen),
		row:   make([]complex64, min(t.NB, t.M)),
		tiles: make([]*Tile, t.NT),
	}
	if t.arenaLen > 0 {
		s.slots = make([]TileScratch, t.NT)
		s.arena = make([]complex64, t.arenaLen)
	}
	return s
}

// slotLen is the TileScratch.Data length tile (i, j) is read into: its
// U and V together and one element more, since a source that reads a
// whole record in place may land an 8-byte record header in Data[0].
func (t *Matrix) slotLen(i, j int) int {
	return 1 + (t.tileRows(i)+t.tileCols(j))*t.rankAt(i*t.NT+j)
}

// layRow carves tile row i's slots out of the arena, each exactly as
// long as its tile needs, so a read never grows a slot and no two tiles
// of the row share storage. A no-op in memory.
func (s *sweepScratch) layRow(t *Matrix, i int) {
	var off int
	for j := range s.slots {
		n := t.slotLen(i, j)
		s.slots[j].Data = s.arena[off : off+n : off+n]
		off += n
	}
}

// fetch returns tile (i, j) of the row layRow last carved, reading it
// into slot j when the source does not keep it, and keeps it in
// tiles[j] for the row's adjoint half.
func (t *Matrix) fetch(s *sweepScratch, i, j int) *Tile {
	var slot *TileScratch
	if s.slots != nil {
		slot = &s.slots[j]
	}
	tile := t.tileAt(i*t.NT+j, slot)
	s.tiles[j] = tile
	return tile
}

// putSweep returns a sweep set to the free list, dropping it when the
// list is full.
func (t *Matrix) putSweep(s *sweepScratch) {
	select {
	case t.sweepFree <- s:
	default:
	}
}
