package tlr

// Structure-of-arrays (SoA) TLR-MVM paths. The per-tile U/V bases are
// re-laid on first SoA product into the paper's stacked form (Fig. 4): one
// column-major panel per tile column holding every V base of that column
// stacked along the rank dimension, and one panel per tile row holding
// the U bases likewise — each panel split into float32 real/imaginary
// planes. Two things fall out of the layout:
//
//   - Phase 1 and phase 3 become MT+NT long skinny GEMVs over contiguous
//     stride-1 planes instead of 2·MT·NT per-tile complex products, so
//     the cfloat four-real inner loops run as unrolled FMA chains with
//     the vector endpoints split exactly once per product.
//   - The phase-2 shuffle (Fig. 6) becomes explicit: the column-stacked
//     intermediate (colSeg offsets) is permuted into the row-stacked
//     ordering (rowSeg offsets) between the two batched phases, which is
//     the same data movement the CS-2 mapping pays as fabric traffic.
//
// Both panel families are one type, panels, with two sweeps: project
// (Pᴴ·x into the panel's rank segment) and expand (P·segment into the
// panel's vector block). Every SoA product is a composition of the two
// around the shuffle — forward is project(V)·expand(U), adjoint
// project(U)·expand(V), and MulVecBatched is the forward product with
// the panels of each phase dealt to a worker pool — so all three
// accumulate in the same order, and the parallel product is the
// sequential one bit for bit at any worker count.
//
// Panels are swept in cache blocks of panels.cols stacked columns, sized
// from the roofline cache model so a block plus the resident vectors
// fits in half the L2.
//
// The AoS tile paths (tlr.go) fuse the phases the other way — one
// sweep that takes each tile's V and U together, with no stacked
// intermediate and no shuffle — and remain the oracle reference; the
// differential tests in internal/testkit pin the SoA variants against
// them.

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cfloat"
	"repro/internal/dense"
	"repro/internal/fanout"
	"repro/internal/roofline"
)

// panels is one family of stacked split-plane factor panels: the V bases
// of every tile column, or the U bases of every tile row. Panel p is
// ext×k column-major with leading dimension ext, where ext is the extent
// of vector block p and k the panel's stacked rank; its tiles are
// stacked along the rank dimension in the family's own order (tile-row
// order inside a V panel, tile-column order inside a U panel).
type panels struct {
	// re/im are the split planes; panel p occupies [off[p], off[p+1]).
	re, im []float32
	off    []int // length n+1
	// seg places panel p's k rank columns at [seg[p], seg[p+1]) of the
	// family's stacked intermediate: column-stacked for the V family,
	// row-stacked for the U family. Length n+1.
	seg []int
	// nb and dim place vector block p at [p·nb, min((p+1)·nb, dim)).
	nb, dim int
	// cols is the cache-block width (stacked rank columns per GEMV panel
	// sweep), quad-aligned, from roofline.Cache.GemvPanelCols. Blocks
	// start on multiples of four columns, so blocking never regroups the
	// kernels' four-column unroll and leaves every sum bit-identical to
	// the unblocked GEMV.
	cols int
	// order lists the panels largest first (ext·k, ties in index order):
	// the order a worker pool takes them in, so the tail of a parallel
	// sweep is the small panels.
	order []int
}

// n returns the number of panels.
func (ps *panels) n() int { return len(ps.off) - 1 }

// block returns the offset and extent of vector block p.
func (ps *panels) block(p int) (lo, ext int) {
	lo = p * ps.nb
	return lo, min(lo+ps.nb, ps.dim) - lo
}

// project runs panel p's conjugate-transpose sweep: the panel's rank
// segment = Pᴴ · (vector block p of x), swept in cache-blocked panels.
// Phase 1 of both products (Vcatⱼᴴ·x_j forward, Ucatᵢᴴ·x_i adjoint).
// Registered hot path — must stay allocation-free.
func (ps *panels) project(p int, xr, xi, segR, segI []float32) {
	lo, ext := ps.block(p)
	base, k := ps.seg[p], ps.seg[p+1]-ps.seg[p]
	outR, outI := segR[base:base+k], segI[base:base+k]
	clear(outR)
	clear(outI)
	xr, xi = xr[lo:lo+ext], xi[lo:lo+ext]
	off := ps.off[p]
	for c0 := 0; c0 < k; c0 += ps.cols {
		cw := min(ps.cols, k-c0)
		cfloat.GemvConjSoAAcc(ext, cw, ps.re[off+c0*ext:], ps.im[off+c0*ext:], ext,
			xr, xi, outR[c0:], outI[c0:])
	}
}

// expand runs panel p's forward sweep: vector block p of out = P · (the
// panel's rank segment), swept in cache-blocked panels. Phase 3 of both
// products (Ucatᵢ·yu_i forward, Vcatⱼ·yc_j adjoint); blocks of distinct
// panels are disjoint, so there is no reduction. Registered hot path —
// must stay allocation-free.
func (ps *panels) expand(p int, segR, segI, outR, outI []float32) {
	lo, ext := ps.block(p)
	base, k := ps.seg[p], ps.seg[p+1]-ps.seg[p]
	outR, outI = outR[lo:lo+ext], outI[lo:lo+ext]
	clear(outR)
	clear(outI)
	off := ps.off[p]
	for c0 := 0; c0 < k; c0 += ps.cols {
		cw := min(ps.cols, k-c0)
		cfloat.GemvSoAAcc(ext, cw, ps.re[off+c0*ext:], ps.im[off+c0*ext:], ext,
			segR[base+c0:], segI[base+c0:], outR, outI)
	}
}

// minParallelWork is the fmac count below which a sweep over a whole
// family runs on the caller's goroutine whatever the worker count: under
// it the goroutine wake-ups cost more than the panels themselves.
const minParallelWork = 4096

// sweepAll runs one of the two sweeps (project or expand, as a method
// expression) over every panel of the family: in index order on the
// caller's goroutine at one worker (or under minParallelWork), largest
// first over a pool otherwise. Panels own disjoint rank segments and
// disjoint vector blocks, so the result does not depend on which. The
// closure is built only on the pool branch: the sequential products
// must stay allocation-free.
func (ps *panels) sweepAll(workers int, sweep func(ps *panels, p int, a, b, c, d []float32), a, b, c, d []float32) {
	if workers <= 1 || len(ps.re) < minParallelWork {
		for p := 0; p < ps.n(); p++ {
			sweep(ps, p, a, b, c, d)
		}
		return
	}
	fanout.Do(ps.n(), workers, func(_, i int) { sweep(ps, ps.order[i], a, b, c, d) })
}

// stackPanels builds one family: panel p stacks factor(p, q) for q in
// [0, inner) into the rank columns [seg[p], seg[p+1]).
func stackPanels(seg []int, inner, nb, dim, cols int, factor func(p, q int) *dense.Matrix) panels {
	ps := panels{seg: seg, off: make([]int, len(seg)), nb: nb, dim: dim, cols: cols, order: make([]int, len(seg)-1)}
	for p := 0; p < ps.n(); p++ {
		_, ext := ps.block(p)
		ps.off[p+1] = ps.off[p] + ext*(seg[p+1]-seg[p])
		ps.order[p] = p
	}
	sort.SliceStable(ps.order, func(a, b int) bool {
		pa, pb := ps.order[a], ps.order[b]
		return ps.off[pa+1]-ps.off[pa] > ps.off[pb+1]-ps.off[pb]
	})
	ps.re = make([]float32, ps.off[ps.n()])
	ps.im = make([]float32, ps.off[ps.n()])
	for p := 0; p < ps.n(); p++ {
		_, ext := ps.block(p)
		dst := ps.off[p]
		for q := 0; q < inner; q++ {
			f := factor(p, q)
			for kk := 0; kk < f.Cols; kk++ {
				cfloat.SplitReIm(f.Data[kk*f.Stride:kk*f.Stride+ext], ps.re[dst:dst+ext], ps.im[dst:dst+ext])
				dst += ext
			}
		}
	}
	return ps
}

// soaLayout is the stacked split-plane factor storage of one Matrix.
type soaLayout struct {
	// v holds one panel per tile column (tileCols(j)×colK(j), tiles in
	// tile-row order), u one per tile row (tileRows(i)×rowK(i), tiles in
	// tile-column order).
	v, u panels
	// rowSeg and colSeg are the stacked intermediate offsets, each of
	// length MT·NT+1: tile (i,j) owns yu[rowSeg[i*NT+j]:rowSeg[i*NT+j+1]]
	// of the row-stacked ordering and yc[colSeg[j*MT+i]:colSeg[j*MT+i+1]]
	// of the column-stacked one.
	rowSeg, colSeg []int
	// free recycles the stacked paths' scratch sets (scratch.go).
	free chan *soaScratch
}

// soaState is embedded in Matrix; like scratchState it keeps the keyed
// Matrix literals in precision valid. Every matrix converts lazily, on
// its first SoA product.
type soaState struct {
	soaReady atomic.Uint32
	soaMu    sync.Mutex
	soa      *soaLayout
}

// EnsureSoA builds the stacked split-plane layout now rather than on the
// first SoA product, for callers that time products; it is safe and
// cheap to call again.
func (t *Matrix) EnsureSoA() { t.getSoA() }

// getSoA returns the layout, building it once per Matrix. Same
// atomic-flag pattern as getSweep: the fast path must not allocate.
func (t *Matrix) getSoA() *soaLayout {
	if t.soaReady.Load() == 1 {
		return t.soa
	}
	t.buildSoA()
	return t.soa
}

// buildSoA assembles the stacked split-plane layout, once per Matrix.
// Offsets come from the rank map, so an out-of-core matrix faults each
// tile in twice (once per family) and never for sizing. This is the one
// place the planes and the stacked scratch list are allocated; every
// later product takes the atomic-flag fast path in getSoA.
func (t *Matrix) buildSoA() {
	t.soaMu.Lock()
	defer t.soaMu.Unlock()
	if t.soaReady.Load() == 1 {
		return
	}
	defer obsSoABuild.Start().End()
	nTiles := t.MT * t.NT
	l := &soaLayout{
		rowSeg: make([]int, nTiles+1),
		colSeg: make([]int, nTiles+1),
		free:   make(chan *soaScratch, scratchPoolCap),
	}
	for idx := 0; idx < nTiles; idx++ {
		l.rowSeg[idx+1] = l.rowSeg[idx] + t.rankAt(idx)
	}
	vseg, useg := make([]int, t.NT+1), make([]int, t.MT+1)
	c := 0
	for j := 0; j < t.NT; j++ {
		for i := 0; i < t.MT; i++ {
			l.colSeg[c+1] = l.colSeg[c] + t.rankAt(i*t.NT+j)
			c++
		}
		vseg[j+1] = l.colSeg[c]
	}
	for i := 0; i < t.MT; i++ {
		useg[i+1] = l.rowSeg[(i+1)*t.NT]
	}
	cols := roofline.DefaultCache().GemvPanelCols(t.NB, 8)
	l.v = stackPanels(vseg, t.MT, t.NB, t.N, cols, func(j, i int) *dense.Matrix { return t.Tile(i, j).V })
	l.u = stackPanels(useg, t.NT, t.NB, t.M, cols, func(i, j int) *dense.Matrix { return t.Tile(i, j).U })
	t.soa = l
	t.soaReady.Store(1)
}

// MulVecSoA computes y = A x over the stacked split-plane layout,
// sequentially. x must have length N, y length M.
func (t *Matrix) MulVecSoA(x, y []complex64) {
	defer obsSoA.Start().End()
	meterMVM(obsSoAMeter, t)
	t.mulVecSoA(x, y, false, 1)
}

// MulVecConjTransSoA computes y = Aᴴ x over the stacked layout,
// sequentially. x must have length M, y length N.
func (t *Matrix) MulVecConjTransSoA(x, y []complex64) {
	defer obsSoAAdj.Start().End()
	meterMVM(obsSoAAdjMeter, t)
	t.mulVecSoA(x, y, true, 1)
}

// MulVecBatched computes y = A x as the same three-phase product with
// the panels of each phase dealt to a pool of workers goroutines (<= 0
// uses GOMAXPROCS): MT+NT stacked GEMVs of heterogeneous rank — the
// variable-size complex batch the paper says vendor libraries lack (§4)
// — taken largest first, into disjoint rank segments and disjoint
// output blocks, so there is no reduction and the result is MulVecSoA's
// bit for bit. The one in-matrix parallel path; at one worker it is the
// MulVecSoA call. The error is always nil (the signature is frozen by
// bench/). Registered hot path.
func (t *Matrix) MulVecBatched(x, y []complex64, workers int) error {
	defer obsBatched.Start().End()
	meterMVM(obsBatMeter, t)
	t.mulVecSoA(x, y, false, fanout.PoolSize(max(t.MT, t.NT), workers))
	return nil
}

// mulVecSoA is the one three-phase SoA product. Forward, the V family
// projects and the U family expands; the adjoint swaps the families and
// reverses the shuffle — tile (i,j) ≈ U Vᴴ contributes V (Uᴴ x_i) to
// output block j. workers > 1 deals the panels of phases 1 and 3 to a
// pool (MulVecBatched); the sequential entry points pass 1.
func (t *Matrix) mulVecSoA(x, y []complex64, adjoint bool, workers int) {
	l := t.getSoA()
	in, out := &l.v, &l.u
	if adjoint {
		in, out = out, in
	}
	if len(x) < in.dim || len(y) < out.dim {
		panic("tlr: SoA product vector too short")
	}
	s := l.getScratch(t)
	inR, inI, outR, outI := s.ycR, s.ycI, s.yuR, s.yuI
	if adjoint {
		inR, inI, outR, outI = outR, outI, inR, inI
	}
	cfloat.SplitReIm(x[:in.dim], s.fxr[:in.dim], s.fxi[:in.dim])
	// Phase 1: one stacked GEMV per input panel into the family's own
	// stacking of the intermediate.
	in.sweepAll(workers, (*panels).project, s.fxr, s.fxi, inR, inI)
	// Phase 2: explicit shuffle into the other family's ordering.
	shuffle(t, l, !adjoint, inR, outR)
	shuffle(t, l, !adjoint, inI, outI)
	// Phase 3: one stacked GEMV per output panel into its disjoint block
	// of the out planes, merged into the caller's y once.
	out.sweepAll(workers, (*panels).expand, outR, outI, s.foutR, s.foutI)
	cfloat.MergeReIm(s.foutR[:out.dim], s.foutI[:out.dim], y[:out.dim])
	l.putScratch(s)
}

// shuffle permutes one rank-space intermediate between the two stacked
// orderings (Fig. 6): toRows moves the column-stacked src (colSeg
// offsets) into the row-stacked dst (rowSeg offsets), !toRows is the
// inverse permutation. Registered hot path — must stay allocation-free.
func shuffle(t *Matrix, l *soaLayout, toRows bool, src, dst []float32) {
	for j := 0; j < t.NT; j++ {
		for i := 0; i < t.MT; i++ {
			c0, c1 := l.colSeg[j*t.MT+i], l.colSeg[j*t.MT+i+1]
			r0 := l.rowSeg[i*t.NT+j]
			r1 := r0 + c1 - c0
			if toRows {
				copy(dst[r0:r1], src[c0:c1])
			} else {
				copy(dst[c0:c1], src[r0:r1])
			}
		}
	}
}
