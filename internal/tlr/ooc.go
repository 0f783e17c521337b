package tlr

// Out-of-core tile sourcing. The paper's survey-scale operator is 110 GB
// compressed — no Matrix can hold all its tiles resident. A Matrix built
// by NewOutOfCore starts with every Tiles entry nil and faults tiles in
// through a TileSource (internal/opstore layers a byte-budgeted LRU
// cache over the paged tlrio format behind this interface). Every MVM
// path — sequential AoS, SoA, batched — reaches tiles only through
// tileAt/rankAt below, so in-memory and store-backed matrices run the
// identical kernels; the differential oracle registers both and holds
// them to ≤1e-6 relative error of each other.

// TileSource supplies tiles of an out-of-core matrix on demand.
// Implementations are expected to be safe for concurrent use (one
// operator serves concurrent products from several goroutines) and to
// own the returned tile's lifetime — callers must not mutate it, and the
// source may hand the same *Tile to concurrent callers.
type TileSource interface {
	// Tile materializes tile idx (row-major in the tile grid, like
	// Matrix.Tiles).
	Tile(idx int) (*Tile, error)
	// Rank returns tile idx's rank without materializing its panels, so
	// offset tables and rank statistics never touch the backing store.
	Rank(idx int) int
}

// NewOutOfCore builds an M×N matrix with tile size nb whose tiles are
// faulted in from src instead of held resident. The returned matrix
// supports every product path of an in-memory one; the AoS paths
// (MulVec, MulVecConjTrans) stream every tile through the source once
// per product, in row-major order, while the SoA paths materialize the
// stacked planes once on first use (pulling each tile once per panel
// family) and are resident thereafter.
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
// resident. The resident check is the entirety of the in-memory fast
// path — one slice index and a nil test — so the MVM kernels stay
// allocation-free; the out-of-core miss is taken by tileSlow. Registered
// hot path (kernel tlr.mulvec_ooc drives the store-backed product
// through here at cache-hit steady state).
func (t *Matrix) tileAt(idx int) *Tile {
	if tile := t.Tiles[idx]; tile != nil {
		return tile
	}
	// out-of-core miss path; the cache-hit steady state returns above,
	// and a miss necessarily allocates the decoded tile
	return t.tileSlow(idx)
}

// tileSlow faults tile idx in through the tile source. A load failure is
// a panic, not an error return: the MVM kernels sit under interfaces
// with no error path (testkit.Operator, mdc kernels), and a CRC mismatch
// or I/O error mid-product leaves no usable partial result anyway.
// Callers needing an error should probe the store directly first.
func (t *Matrix) tileSlow(idx int) *Tile {
	if t.src == nil {
		return nil
	}
	tile, err := t.src.Tile(idx)
	if err != nil {
		panic("tlr: out-of-core tile load failed: " + err.Error())
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
