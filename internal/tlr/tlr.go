// Package tlr implements the tile low-rank (TLR) matrix format and the
// TLR-MVM kernel at the heart of the paper. A matrix is split into nb×nb
// tiles (Fig. 2), each tile is compressed independently into a product
// U·Vᴴ of rank-k bases (Fig. 3), and the bases are stacked contiguously in
// memory (Fig. 4): Compress puts a matrix's kept bases in one slab, tile
// by tile in storage order, V before U. The matrix-vector product then
// proceeds in three phases: a batched MVM over the V bases (Fig. 5), a
// memory shuffle that projects from the V to the U ordering (Fig. 6), and
// a batched MVM over the U bases (Fig. 7).
//
// The package provides four products (DESIGN.md, "TLR-MVM entry
// points"), all one body, sweep, over the per-tile bases: the sequential
// MulVec/MulVecConjTrans (the phases fused per tile), MulVecStep, one
// LSQR step w = A x − α u, z = Aᴴ w in one sweep over the tile rows, and
// its α = 0 case MulVecNormal. frozen.go keeps three more names, each a
// forward to one of these, for the frozen benchmark.
package tlr

import (
	"fmt"
	"math"

	"repro/internal/cfloat"
	"repro/internal/dense"
	"repro/internal/fanout"
	"repro/internal/qr"
	"repro/internal/svd"
)

// Method selects the per-tile compression algorithm.
type Method int

const (
	// MethodSVD uses an exact truncated SVD (QR-preconditioned
	// one-sided Jacobi).
	MethodSVD Method = iota
	// MethodRRQR uses rank-revealing QR with column pivoting.
	MethodRRQR
)

func (m Method) String() string {
	switch m {
	case MethodSVD:
		return "svd"
	case MethodRRQR:
		return "rrqr"
	}
	return "unknown"
}

// Tile is one compressed nb×nb (edge tiles may be smaller) block:
// A_tile ≈ U·Vᴴ with U rows×k and V cols×k. The singular values are folded
// into U, matching the stacked-bases storage of the paper.
type Tile struct {
	U *dense.Matrix
	V *dense.Matrix
}

// Rank returns the tile's approximation rank.
func (t *Tile) Rank() int { return t.U.Cols }

// Bytes returns the compressed footprint of the tile (U and V elements,
// 8 bytes per complex64).
func (t *Tile) Bytes() int64 { return t.U.Bytes() + t.V.Bytes() }

// Matrix is an M×N tile low-rank matrix with uniform tile size NB.
// Tiles are stored row-major in the tile grid: Tiles[i*NT+j] is tile (i,j)
// covering rows [i·NB, min((i+1)·NB, M)) and the analogous columns.
type Matrix struct {
	M, N  int
	NB    int
	MT    int // number of tile rows
	NT    int // number of tile columns
	Tiles []*Tile

	// src faults non-resident tiles in for out-of-core matrices (see
	// ooc.go); nil for fully in-memory matrices. Kernels never touch
	// Tiles directly — they go through tileAt/rankAt so both kinds run
	// the same code. ranks snapshots every tile's rank at construction
	// so rank queries never call through the source.
	src   TileSource
	ranks []int

	// scratchState holds the sweep's scratch free list (see
	// scratch.go).
	scratchState
}

// Options configures TLR compression.
type Options struct {
	// NB is the uniform tile size (the paper's nb; 25, 50, or 70).
	NB int
	// Tol is the per-tile relative Frobenius accuracy (the paper's acc).
	Tol float64
	// Method selects the compressor (default SVD).
	Method Method
	// MaxRank caps per-tile rank (0 = no cap).
	MaxRank int
	// Workers sets the compression parallelism (0 = GOMAXPROCS).
	Workers int
}

// Compress builds a TLR approximation of the dense matrix a. Every
// tile's kept bases go into one slab, in storage order and V before U
// within a tile — the order sweep reads them (Fig. 4's stacking). A
// tile holding a NaN or an Inf is an error naming the tile.
func Compress(a *dense.Matrix, opts Options) (*Matrix, error) {
	if opts.NB <= 0 {
		return nil, fmt.Errorf("tlr: tile size NB must be positive, got %d", opts.NB)
	}
	if opts.Tol < 0 || math.IsNaN(opts.Tol) || math.IsInf(opts.Tol, 0) {
		return nil, fmt.Errorf("tlr: tolerance must be finite and non-negative, got %g", opts.Tol)
	}
	switch opts.Method {
	case MethodSVD, MethodRRQR:
	default:
		return nil, fmt.Errorf("tlr: unknown compression method %d", opts.Method)
	}
	defer obsCompress.Start().End()
	m, n, nb := a.Rows, a.Cols, opts.NB
	mt := (m + nb - 1) / nb
	nt := (n + nb - 1) / nb
	t := &Matrix{M: m, N: n, NB: nb, MT: mt, NT: nt, Tiles: make([]*Tile, mt*nt)}
	fanout.Do(mt*nt, opts.Workers, func(_, idx int) {
		i, j := idx/nt, idx%nt
		block := a.Slice(i*nb, min((i+1)*nb, m), j*nb, min((j+1)*nb, n))
		if finite(block) {
			t.Tiles[idx] = compressTile(block, opts)
		}
	})
	var size int
	for idx, tile := range t.Tiles {
		if tile == nil {
			return nil, fmt.Errorf("tlr: tile (%d, %d) has a non-finite entry", idx/nt, idx%nt)
		}
		size += len(tile.V.Data) + len(tile.U.Data)
	}
	slab := make([]complex64, 0, size)
	for _, tile := range t.Tiles {
		tile.V = packed(&slab, tile.V)
		tile.U = packed(&slab, tile.U)
	}
	return t, nil
}

// finite reports whether every entry of b is finite; a NaN or an Inf
// would otherwise compress silently into NaN factors.
func finite(b *dense.Matrix) bool {
	for j := 0; j < b.Cols; j++ {
		for _, x := range b.Col(j) {
			// x − x is 0 for a finite x, NaN for a NaN or an Inf
			if r, i := real(x), imag(x); r-r != 0 || i-i != 0 {
				return false
			}
		}
	}
	return true
}

// packed appends b's elements (b is tight) to the slab and returns b as
// an exact-length view of them.
func packed(slab *[]complex64, b *dense.Matrix) *dense.Matrix {
	off := len(*slab)
	*slab = append(*slab, b.Data...)
	return dense.FromSlice(b.Rows, b.Cols, (*slab)[off:len(*slab):len(*slab)])
}

// compressTile compresses one tile with opts.Method, which Compress has
// validated.
func compressTile(block *dense.Matrix, opts Options) *Tile {
	switch opts.Method {
	case MethodSVD:
		d := svd.Decompose(block)
		k := d.Rank(opts.Tol)
		if opts.MaxRank > 0 && k > opts.MaxRank {
			k = opts.MaxRank
		}
		u, v := d.Truncate(k)
		return &Tile{U: u, V: v}
	case MethodRRQR:
		f := qr.RRQR(block, opts.Tol, opts.MaxRank)
		// A P = Q R ⇒ A ≈ Q (R Pᵀ); store U = Q, V = (R Pᵀ)ᴴ
		r := f.R
		vp := dense.New(block.Cols, f.Rank())
		for j := 0; j < r.Cols; j++ {
			orig := f.Piv[j]
			for i := 0; i < r.Rows; i++ {
				x := r.At(i, j)
				vp.Set(orig, i, complex(real(x), -imag(x)))
			}
		}
		return &Tile{U: f.Q, V: vp}
	}
	panic("tlr: unreachable: Compress validates the method")
}

// Tile returns tile (i, j), faulting it in from the tile source for
// out-of-core matrices.
func (t *Matrix) Tile(i, j int) *Tile { return t.tileAt(i*t.NT+j, nil) }

// tileRows returns the row extent of tile row i.
func (t *Matrix) tileRows(i int) int { return min((i+1)*t.NB, t.M) - i*t.NB }

// tileCols returns the column extent of tile column j.
func (t *Matrix) tileCols(j int) int { return min((j+1)*t.NB, t.N) - j*t.NB }

// MaxRank returns the largest tile rank.
func (t *Matrix) MaxRank() int {
	var m int
	for idx := range t.Tiles {
		if r := t.rankAt(idx); r > m {
			m = r
		}
	}
	return m
}

// TotalRank returns the sum of all tile ranks (the size of the intermediate
// Yv/Yu vectors of the shuffle phase).
func (t *Matrix) TotalRank() int {
	var s int
	for idx := range t.Tiles {
		s += t.rankAt(idx)
	}
	return s
}

// AvgRank returns the mean tile rank.
func (t *Matrix) AvgRank() float64 {
	if len(t.Tiles) == 0 {
		return 0
	}
	return float64(t.TotalRank()) / float64(len(t.Tiles))
}

// CompressedBytes returns the total footprint of all U and V bases.
func (t *Matrix) CompressedBytes() int64 {
	u, v := t.factorBytes()
	return u + v
}

// factorBytes returns the footprints of the U and the V bases. Computed
// from the rank map alone — rows·k and cols·k complex64 elements per
// tile — so out-of-core matrices answer without faulting tiles in.
func (t *Matrix) factorBytes() (u, v int64) {
	for i := 0; i < t.MT; i++ {
		for j := 0; j < t.NT; j++ {
			k := int64(t.rankAt(i*t.NT + j))
			u += int64(t.tileRows(i)) * k * 8
			v += int64(t.tileCols(j)) * k * 8
		}
	}
	return u, v
}

// DenseBytes returns the footprint of the dense equivalent.
func (t *Matrix) DenseBytes() int64 { return int64(t.M) * int64(t.N) * 8 }

// CompressionRatio returns dense/compressed size (the paper reports 7X for
// acc=1e-4 with Hilbert ordering).
func (t *Matrix) CompressionRatio() float64 {
	cb := t.CompressedBytes()
	if cb == 0 {
		return 0
	}
	return float64(t.DenseBytes()) / float64(cb)
}

// Reconstruct forms the dense matrix approximated by the TLR format.
func (t *Matrix) Reconstruct() *dense.Matrix {
	out := dense.New(t.M, t.N)
	for i := 0; i < t.MT; i++ {
		for j := 0; j < t.NT; j++ {
			tile := t.Tile(i, j)
			block := dense.Mul(tile.U, tile.V.ConjTranspose())
			for jj := 0; jj < block.Cols; jj++ {
				dst := out.Col(j*t.NB + jj)[i*t.NB : i*t.NB+block.Rows]
				copy(dst, block.Col(jj))
			}
		}
	}
	return out
}

// MulVec computes y = A x, sequentially over the per-tile AoS bases —
// the oracle's reference path and the route mdc.TLRKernel takes. x must
// have length N, y length M.
func (t *Matrix) MulVec(x, y []complex64) {
	if len(x) < t.N || len(y) < t.M {
		panic("tlr: MulVec vector too short")
	}
	defer obsMVM.Start().End()
	meterMVM(obsMVMMeter, t)
	s := t.getSweep()
	t.sweep(x, y[:t.M], nil, 1, 0, nil, s)
	t.putSweep(s)
}

// MulVecConjTrans computes y = Aᴴ x: the adjoint TLR-MVM required by the
// LSQR solver. Tile (i,j) ≈ U Vᴴ contributes V (Uᴴ x_i) to output block j.
// x must have length M, y length N.
func (t *Matrix) MulVecConjTrans(x, y []complex64) {
	if len(x) < t.M || len(y) < t.N {
		panic("tlr: MulVecConjTrans vector too short")
	}
	defer obsAdjoint.Start().End()
	meterMVM(obsAdjMeter, t)
	s := t.getSweep()
	t.sweep(nil, x, y[:t.N], 1, 0, nil, s)
	t.putSweep(s)
}

// MulVecStep runs one Golub–Kahan step of LSQR in one sweep over the
// tiles: w = scale·(A x) − alpha·u, then z = Aᴴ w. Each tile row's
// adjoint half runs on the tiles its forward half has just read, so the
// operator is streamed once where MulVec followed by MulVecConjTrans
// streams it twice, in memory and store-backed alike (a tile the store
// does not keep is read from the file once per step); the result is
// theirs bit for bit, with the scale and the subtract of
// cfloat.ScaleSub between them. u may be nil when alpha is 0. x and z
// have length N, u and w length M.
func (t *Matrix) MulVecStep(x []complex64, scale, alpha float32, u, w, z []complex64) {
	if len(x) < t.N || len(w) < t.M || len(z) < t.N || (u != nil && len(u) < t.M) {
		panic("tlr: MulVecStep vector too short")
	}
	defer obsStep.Start().End()
	meterFused(obsStepMeter, t, 2*t.N+2*t.M)
	s := t.getSweep()
	t.sweep(x, w[:t.M], z[:t.N], scale, alpha, u, s)
	t.putSweep(s)
}

// MulVecNormal computes y = Aᴴ(A x), the normal product behind CGLS:
// MulVecStep at alpha 0 and unit scale, with each A x row block kept in
// the sweep's row scratch. x and y have length N.
func (t *Matrix) MulVecNormal(x, y []complex64) {
	if len(x) < t.N || len(y) < t.N {
		panic("tlr: MulVecNormal vector too short")
	}
	defer obsNormal.Start().End()
	meterFused(obsNormalMeter, t, 2*t.N)
	s := t.getSweep()
	t.sweep(x, nil, y[:t.N], 1, 0, nil, s)
	t.putSweep(s)
}

// sweep is the body of every sequential product: one pass over the tile
// rows in storage (row-major) order. Row i runs up to three steps, each
// consuming a tile's two bases together —
//
//	forward (x != nil):  seg = V_{ij}ᴴ·x_j (Fig. 5), w_i += U_{ij}·seg (Fig. 7)
//	middle  (scale ≠ 1 or u != nil):  w_i = scale·w_i − alpha·u_i
//	adjoint (z != nil):  seg = U_{ij}ᴴ·w_i,          z_j += V_{ij}·seg
//
// MulVec is the forward step alone (w = y), MulVecConjTrans the adjoint
// alone (w = its input), MulVecStep all three and MulVecNormal the
// forward and adjoint around no middle, with w nil: each w_i then lives
// in the checkout's row scratch.
//
// The three-phase schedule of the paper (all projections, the Fig. 6
// shuffle, all expansions) computes the same bits: a tile's projection
// depends on nothing but the tile and its input block, and every output
// block still accumulates its tiles in ascending order — w_i over j, z_j
// over i — so a fused step is its two products bit for bit. What the
// fused order buys is Fig. 9's point applied on the host: with U and V
// of a tile used together there is no shuffle, a row's adjoint half
// finds its tiles still in cache, and a store-backed matrix faults each
// tile once per product, in the order the file holds them. The forward
// half keeps row i's tiles in the checkout, reading a tile the store
// does not keep into that tile's slot of the checkout's tile-row arena,
// and the adjoint half runs on them without asking the source again;
// MulVecConjTrans, with no forward half, fetches them itself. s is the
// product's checkout (scratch.go). Registered hot path — the loop must
// stay allocation-free.
func (t *Matrix) sweep(x, w, z []complex64, scale, alpha float32, u []complex64, s *sweepScratch) {
	clear(z)
	for i := 0; i < t.MT; i++ {
		r0, r1 := i*t.NB, i*t.NB+t.tileRows(i)
		wi := s.row[:r1-r0]
		if w != nil {
			wi = w[r0:r1]
		}
		s.layRow(t, i)
		if x != nil {
			clear(wi)
			for j := 0; j < t.NT; j++ {
				tile := t.fetch(s, i, j)
				applyTile(tile.V, tile.U, x[j*t.NB:j*t.NB+t.tileCols(j)], wi, s.seg)
			}
		}
		switch {
		case u != nil:
			cfloat.ScaleSub(scale, wi, alpha, u[r0:r1])
		case scale != 1:
			cfloat.Scal(complex(scale, 0), wi)
		}
		if z != nil {
			for j := 0; j < t.NT; j++ {
				tile := s.tiles[j]
				if x == nil {
					tile = t.fetch(s, i, j)
				}
				applyTile(tile.U, tile.V, wi, z[j*t.NB:j*t.NB+t.tileCols(j)], s.seg)
			}
		}
	}
}

// applyTile accumulates one tile's contribution, out += exp·(projᴴ·in),
// through the rank segment seg.
func applyTile(proj, exp *dense.Matrix, in, out, seg []complex64) {
	seg = seg[:proj.Cols]
	proj.MulVecConjTrans(in, seg)
	cfloat.Gemv(cfloat.NoTrans, exp.Rows, exp.Cols, 1, exp.Data, exp.Stride, seg, 1, out)
}

// ColumnStackedSizes returns, for each tile column j, the total stacked V
// rank Σ_i k_{ij} — the height of the stacked V base of Fig. 4/9 that the
// CS-2 mapping distributes over PEs.
func (t *Matrix) ColumnStackedSizes() []int {
	out := make([]int, t.NT)
	for j := 0; j < t.NT; j++ {
		for i := 0; i < t.MT; i++ {
			out[j] += t.rankAt(i*t.NT + j)
		}
	}
	return out
}

// RowStackedSizes returns, for each tile row i, the total stacked U rank
// Σ_j k_{ij}.
func (t *Matrix) RowStackedSizes() []int {
	out := make([]int, t.MT)
	for i := 0; i < t.MT; i++ {
		for j := 0; j < t.NT; j++ {
			out[i] += t.rankAt(i*t.NT + j)
		}
	}
	return out
}

// Ranks returns the mt×nt rank map (row-major), used by the CS-2 shard
// planner and by rank-distribution diagnostics.
func (t *Matrix) Ranks() []int {
	out := make([]int, len(t.Tiles))
	for idx := range t.Tiles {
		out[idx] = t.rankAt(idx)
	}
	return out
}

func (t *Matrix) String() string {
	return fmt.Sprintf("tlr.Matrix(%dx%d, nb=%d, tiles=%dx%d, maxRank=%d, ratio=%.2fx)",
		t.M, t.N, t.NB, t.MT, t.NT, t.MaxRank(), t.CompressionRatio())
}
