package tlr

import (
	"sync"
	"sync/atomic"

	"repro/internal/batch"
)

// The three-phase MVM needs its intermediates per call: the stacked
// Yv/Yu projection vector, the split planes of the SoA paths, and the
// batch task list. Allocating them per product put makes on the hot
// path; they are hoisted here into a per-matrix free list so
// steady-state products allocate nothing (testkit's AllocsPerRun gate
// proves it). A channel free list rather than sync.Pool: the pool may
// drop entries at any GC, which makes AllocsPerRun
// nondeterministic, and rather than a single cached buffer because
// stress tests drive one Matrix from many goroutines concurrently.
const scratchPoolCap = 16

// mvmScratch is one checkout of the MVM intermediates.
type mvmScratch struct {
	// yv holds every tile's projection segment, stacked by tile index:
	// tile idx owns yv[rankOff[idx]:rankOff[idx+1]]. The sequential
	// sweep needs one tile's segment at a time and borrows the head.
	yv []complex64
	// yvc is the column-stacked counterpart (tile order j-major, offsets
	// in soaLayout.colSeg), the pre-shuffle intermediate of the stacked
	// batched path.
	yvc []complex64
	// tasks is the reusable batch member list, one member per stacked
	// panel of a phase (length 0, cap max(MT,NT)).
	tasks []batch.MVM

	// Split-plane scratch for the SoA kernels (soa.go): the input and
	// output vectors split once per product (length max(M,N) each) and
	// the column- and row-stacked intermediate planes (length TotalRank).
	fxr, fxi []float32
	foutR    []float32
	foutI    []float32
	ycR, ycI []float32
	yuR, yuI []float32
}

// ensureScratch computes the stacked-segment offset table and creates
// the free list, once per Matrix. A mutex-guarded slow path behind an
// atomic flag instead of sync.Once: the fast path must stay free of the
// method-value closure `t.once.Do(...)` would allocate per call.
func (t *Matrix) ensureScratch() {
	if t.scratchReady.Load() == 1 {
		return
	}
	t.scratchMu.Lock()
	defer t.scratchMu.Unlock()
	if t.scratchReady.Load() == 1 {
		return
	}
	nTiles := t.MT * t.NT
	t.rankOff = make([]int, nTiles+1)
	for idx := 0; idx < nTiles; idx++ {
		t.rankOff[idx+1] = t.rankOff[idx] + t.rankAt(idx)
	}
	t.scratchFree = make(chan *mvmScratch, scratchPoolCap)
	t.scratchReady.Store(1)
}

// getScratch checks a scratch set out of the free list, allocating a
// fresh one when the list is empty (first calls and bursts of
// concurrent products beyond the pool capacity).
func (t *Matrix) getScratch() *mvmScratch {
	t.ensureScratch()
	select {
	case s := <-t.scratchFree:
		return s
	default:
	}
	nTiles := t.MT * t.NT
	tr := t.rankOff[nTiles]
	mn := max(t.M, t.N)
	return &mvmScratch{
		yv:    make([]complex64, tr),
		yvc:   make([]complex64, tr),
		tasks: make([]batch.MVM, 0, max(t.MT, t.NT)),
		fxr:   make([]float32, mn),
		fxi:   make([]float32, mn),
		foutR: make([]float32, mn),
		foutI: make([]float32, mn),
		ycR:   make([]float32, tr),
		ycI:   make([]float32, tr),
		yuR:   make([]float32, tr),
		yuI:   make([]float32, tr),
	}
}

// putScratch returns a scratch set to the free list, dropping it when
// the list is full.
func (t *Matrix) putScratch(s *mvmScratch) {
	select {
	case t.scratchFree <- s:
	default:
	}
}

// scratchState is embedded in Matrix; a separate struct keeps the
// public Matrix fields (and keyed literals elsewhere) untouched.
type scratchState struct {
	scratchReady atomic.Uint32
	scratchMu    sync.Mutex
	scratchFree  chan *mvmScratch
	// rankOff is the row-stacked segment offset table, length MT·NT+1:
	// tile idx owns [rankOff[idx], rankOff[idx+1]) of yv.
	rankOff []int
}
