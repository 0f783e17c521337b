package mdc

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/fanout"
	"repro/internal/fft"
)

// The S and Sᴴ stages of TimeOperator are one batched pencil transform:
// nchan independent length-Nt transforms between channel-major traces
// and frequency-major band panels. Channels go through the fan-out in
// blocks of pencilBlock; a worker transforms each channel of its block in
// its own complex128 pencil, into or out of an nf × pencilBlock tile, and
// moves whole tile rows to and from the panels — so the stride-nchan
// scatter a channel-at-a-time loop would do becomes a tiled transpose,
// and a block of 16 complex64 (two cache lines) keeps two workers off the
// same panel line.
const pencilBlock = 16

// scratchPoolCap bounds the free list; concurrent products beyond it
// allocate their scratch and drop it.
const scratchPoolCap = 8

// pencils is the transform state embedded in TimeOperator: the banded
// plan, built on first use, and the free list of scratch sets (the
// tlr/scratch.go idiom: a channel, not a sync.Pool, so a steady-state
// product allocates nothing whatever the GC does, and more than one
// entry because the operator may run concurrent products).
type pencils struct {
	once sync.Once
	band *fft.Band
	free chan *timeScratch
}

// timeScratch is one checkout: everything a product or a standalone
// stage writes that is not its output, and the arguments of the stage in
// flight — held here, not in a closure, so that a one-worker product
// creates neither a goroutine nor a func value.
type timeScratch struct {
	op *TimeOperator

	// frequency-major panels between the stages of a product
	b      freqBlocks
	xf, yf []complex64

	// per-worker pencil and tile
	pencil [][]complex128
	tile   [][]complex64

	// the stage in flight: channel-major traces, frequency-major panels
	traces, bands []complex64
	nchan         int
}

// setup builds the banded plan, once. FreqIdx is checked here, where
// every later transform would otherwise trust it: a bin off the DFT grid
// is an index panic from inside a butterfly, and a repeated bin makes S
// non-unitary without any symptom but a wrong solution.
func (op *TimeOperator) setup() {
	seen := make([]bool, max(op.Nt, 0))
	for f, bin := range op.FreqIdx {
		if bin < 0 || bin >= op.Nt {
			panic(fmt.Sprintf("mdc: TimeOperator FreqIdx[%d] = %d is outside [0, %d)", f, bin, op.Nt))
		}
		if seen[bin] {
			panic(fmt.Sprintf("mdc: TimeOperator FreqIdx[%d] repeats bin %d", f, bin))
		}
		seen[bin] = true
	}
	op.band = fft.NewPlan(op.Nt).Band(op.FreqIdx)
	op.free = make(chan *timeScratch, scratchPoolCap)
}

func (op *TimeOperator) getScratch() *timeScratch {
	op.once.Do(op.setup)
	select {
	case s := <-op.free:
		return s
	default:
		return &timeScratch{op: op}
	}
}

// putScratch returns a scratch set to the free list, dropping it when the
// list is full. The caller's vectors are let go first.
func (op *TimeOperator) putScratch(s *timeScratch) {
	s.traces, s.bands = nil, nil
	select {
	case op.free <- s:
	default:
	}
}

// panels sizes the two frequency-major panels for product b and binds b
// for the kernel step.
func (s *timeScratch) panels(b freqBlocks) (xf, yf []complex64) {
	s.b = b
	if n := b.nf * max(b.nin, b.nout); len(s.xf) < n {
		s.xf, s.yf = make([]complex64, n), make([]complex64, n)
	}
	return s.xf, s.yf
}

// each runs body(s, w, i) for every i in [0, n) on the operator's
// workers, with a pencil and a tile ready for each. body is a method
// expression: at one worker the loop is inline and nothing is allocated.
func (s *timeScratch) each(n int, body func(s *timeScratch, w, i int)) {
	workers := fanout.PoolSize(n, s.op.Workers)
	for len(s.pencil) < workers {
		s.pencil = append(s.pencil, make([]complex128, s.op.band.WorkLen()))
		s.tile = append(s.tile, make([]complex64, len(s.op.FreqIdx)*pencilBlock))
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			body(s, 0, i)
		}
		return
	}
	fanout.Do(n, workers, func(w, i int) { body(s, w, i) })
}

// transform runs one stage — analyzeBlock or synthesizeBlock — over
// nchan channels, a block per index.
func (s *timeScratch) transform(block func(s *timeScratch, w, blk int), traces, bands []complex64, nchan int) {
	s.traces, s.bands, s.nchan = traces, bands, nchan
	s.each((nchan+pencilBlock-1)/pencilBlock, block)
}

// kernel is the K step of a product at frequency f.
func (s *timeScratch) kernel(_, f int) {
	s.b.apply(f, s.b.in(s.xf, f), s.b.out(s.yf, f))
}

// analyzeBlock is S on channels [blk·pencilBlock, …): each trace through
// the banded plan into a tile column, then the tile's rows into the
// panels.
func (s *timeScratch) analyzeBlock(w, blk int) {
	nt, band, tile := s.op.Nt, s.op.band, s.tile[w]
	c0 := blk * pencilBlock
	width := min(pencilBlock, s.nchan-c0)
	root := 1 / math.Sqrt(float64(nt))
	for j := 0; j < width; j++ {
		band.Analyze(tile[j:], pencilBlock, s.traces[(c0+j)*nt:(c0+j+1)*nt], root, s.pencil[w])
	}
	for f := range s.op.FreqIdx {
		copy(s.bands[f*s.nchan+c0:f*s.nchan+c0+width], tile[f*pencilBlock:])
	}
}

// synthesizeBlock is Sᴴ on the same block: panel rows into the tile, then
// each tile column through the banded plan into its trace.
func (s *timeScratch) synthesizeBlock(w, blk int) {
	nt, band, tile := s.op.Nt, s.op.band, s.tile[w]
	c0 := blk * pencilBlock
	width := min(pencilBlock, s.nchan-c0)
	rootInv := math.Sqrt(float64(nt))
	for f := range s.op.FreqIdx {
		copy(tile[f*pencilBlock:], s.bands[f*s.nchan+c0:f*s.nchan+c0+width])
	}
	for j := 0; j < width; j++ {
		band.Synthesize(s.traces[(c0+j)*nt:(c0+j+1)*nt], tile[j:], pencilBlock, rootInv, s.pencil[w])
	}
}
