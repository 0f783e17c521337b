package tlr

import (
	"fmt"

	"repro/internal/dense"
)

// Out-of-core tile sourcing. The paper's survey-scale operator is 110 GB
// compressed — no Matrix can hold all its tiles resident. A Matrix built
// by NewOutOfCore starts with every Tiles entry nil and faults tiles in
// through a TileSource (internal/opstore keeps the tiles its byte budget
// has room for and streams the rest behind this interface). Every MVM
// path — sequential AoS, SoA, batched — reaches tiles only through
// tileAt/rankAt below, so in-memory and store-backed matrices run the
// identical kernels; the differential oracle registers both and holds
// them to ≤1e-6 relative error of each other.

// TileSource supplies tiles of an out-of-core matrix on demand.
// Implementations are expected to be safe for concurrent use (one
// operator serves concurrent products from several goroutines). A tile
// the source keeps may be handed to concurrent callers, who must not
// mutate it.
type TileSource interface {
	// Tile materializes tile idx (row-major in the tile grid, like
	// Matrix.Tiles). Given a scratch, the source may read a tile it does
	// not keep into it; that tile is valid until the next request made
	// with the same scratch. Given nil, a tile the source does not keep
	// is the caller's.
	Tile(idx int, s *TileScratch) (*Tile, error)
	// Rank returns tile idx's rank without materializing its panels, so
	// offset tables and rank statistics never touch the backing store.
	Rank(idx int) int
}

// TileScratch is caller-owned storage a TileSource reads a tile into
// instead of allocating one. The sequential sweep of a store-backed
// matrix checks out one per tile column together with its rank segment,
// so a tile the source does not keep costs its read and nothing else,
// and stays valid for the rest of its tile row.
type TileScratch struct {
	// Data backs the factors. The sweep points it, from the rank
	// snapshot, at a piece of its tile-row arena one element longer than
	// the tile's U and V together: a source that reads a whole record in
	// place may land an 8-byte record header in Data[0].
	Data []complex64
	// Page holds encoded bytes a source decodes the factors from; the
	// source grows it.
	Page []byte

	tile Tile
	u, v dense.Matrix
}

// View points the scratch's tile at f, which holds U (rows×k) followed
// by V (cols×k), both column-major with tight strides, and returns it.
func (s *TileScratch) View(rows, cols, k int, f []complex64) *Tile {
	nu, nv := rows*k, cols*k
	s.u = dense.Matrix{Rows: rows, Cols: k, Stride: max(1, rows), Data: f[:nu:nu]}
	s.v = dense.Matrix{Rows: cols, Cols: k, Stride: max(1, cols), Data: f[nu : nu+nv : nu+nv]}
	s.tile = Tile{U: &s.u, V: &s.v}
	return &s.tile
}

// NewOutOfCore builds an M×N matrix with tile size nb whose tiles are
// faulted in from src instead of held resident. The returned matrix
// supports every product path of an in-memory one; the AoS paths
// (MulVec, MulVecConjTrans, MulVecStep, MulVecNormal) stream every tile
// through the source once per product, in row-major order — a step's
// adjoint half runs on the tile row its forward half read — while the
// SoA paths materialize the stacked planes once on first use (pulling
// each tile once per panel family) and are resident thereafter.
func NewOutOfCore(m, n, nb int, src TileSource) *Matrix {
	mt := (m + nb - 1) / nb
	nt := (n + nb - 1) / nb
	// Snapshot every tile rank up front: rank queries back offset tables
	// and byte metering inside the allocation-free kernels, so they must
	// stay a plain slice index rather than a dynamic source call.
	ranks := make([]int, mt*nt)
	for i := range ranks {
		ranks[i] = src.Rank(i)
	}
	return &Matrix{
		M: m, N: n, NB: nb, MT: mt, NT: nt,
		Tiles: make([]*Tile, mt*nt),
		src:   src,
		ranks: ranks,
	}
}

// tileAt returns tile idx, faulting it in from the tile source when not
// resident; s is the sweep's slot for the tile, or nil for a caller
// that keeps the tile. The resident check is the entirety of the
// in-memory fast path — one slice index and a nil test — so the MVM
// kernels stay allocation-free. Registered hot paths: tlr.mulvec_ooc
// drives the store-backed product through here with every tile
// resident, tlr.mulvec_ooc_stream with most of them read into s.
func (t *Matrix) tileAt(idx int, s *TileScratch) *Tile {
	if tile := t.Tiles[idx]; tile != nil {
		return tile
	}
	return t.tileSlow(idx, s)
}

// tileSlow faults tile idx in through the tile source. A load failure is
// a panic, not an error return: the MVM kernels sit under interfaces
// with no error path (testkit.Operator, mdc kernels), and a CRC mismatch
// or I/O error mid-product leaves no usable partial result anyway.
// The panic value is an error wrapping the source's, so a recovered
// panic still answers errors.Is (tlrio.ErrChecksum, say). Callers
// needing an error return should probe the store directly first.
func (t *Matrix) tileSlow(idx int, s *TileScratch) *Tile {
	if t.src == nil {
		return nil
	}
	tile, err := t.src.Tile(idx, s)
	if err != nil {
		panic(fmt.Errorf("tlr: out-of-core tile load failed: %w", err))
	}
	return tile
}

// rankAt returns tile idx's rank without forcing a non-resident tile in.
// Out-of-core matrices answer from the rank snapshot taken at
// construction, keeping this (and everything metering through it)
// allocation-free.
func (t *Matrix) rankAt(idx int) int {
	if tile := t.Tiles[idx]; tile != nil {
		return tile.Rank()
	}
	if t.ranks == nil {
		return 0
	}
	return t.ranks[idx]
}

// OutOfCore reports whether the matrix faults tiles from a TileSource.
func (t *Matrix) OutOfCore() bool { return t.src != nil }
