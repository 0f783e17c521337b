package opstore

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/precision"
	"repro/internal/tlr"
	"repro/internal/tlrio"
)

// Store is an open paged kernel plus the shared tile cache over every
// frequency matrix in it. Matrices handed out by Matrix fault tiles in
// through the cache, so the whole multi-frequency operator shares one
// byte budget — the working set the paper sizes against device memory.
type Store struct {
	pf    *tlrio.PagedFile
	cache *Cache
	// matBase[f] is matrix f's base in the flat global tile index; the
	// final entry is the total tile count.
	matBase []int
	closer  io.Closer
}

// open layers a store over an already-open paged kernel image of the
// given size, with a decoded-bytes cache budget.
func open(r io.ReaderAt, size int64, budget int64) (*Store, error) {
	pf, err := tlrio.OpenPaged(r, size)
	if err != nil {
		return nil, err
	}
	s := &Store{pf: pf, matBase: make([]int, len(pf.Mats)+1)}
	for i, pm := range pf.Mats {
		s.matBase[i+1] = s.matBase[i] + len(pm.Tiles)
	}
	total := s.matBase[len(pf.Mats)]
	if total == 0 {
		return nil, fmt.Errorf("opstore: empty paged kernel")
	}
	s.cache, err = newCache(CacheConfig{
		N:      total,
		Budget: budget,
		Load:   s.loadGlobal,
		Size:   s.sizeGlobal,
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// OpenFile opens a paged kernel file from disk.
func OpenFile(path string, budget int64) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	s, err := open(f, fi.Size(), budget)
	if err != nil {
		f.Close()
		return nil, err
	}
	s.closer = f
	return s, nil
}

// OpenBytes opens an in-memory paged kernel image — the store used by
// the differential oracle, which round-trips operators through the full
// page/CRC/decode path without touching disk.
func OpenBytes(img []byte, budget int64) (*Store, error) {
	return open(bytes.NewReader(img), int64(len(img)), budget)
}

// WriteFile builds a paged store file from an in-memory kernel under
// the given tier policy (nil policy and zero page size take the
// tlrio defaults: uniform fp32, 4 KiB pages).
func WriteFile(path string, k *tlrio.Kernel, pol precision.Policy) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tlrio.WritePaged(f, k, pol); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return err
	}
	return nil
}

// locate splits a global tile index into (matrix, tile) coordinates.
func (s *Store) locate(g int) (int, int) {
	// matBase[1:] holds each matrix's end, ascending: the owner of g is
	// the first matrix whose end lies beyond it.
	ends := s.matBase[1:]
	f := sort.SearchInts(ends, g+1)
	if f == len(ends) {
		panic("opstore: global tile index out of range")
	}
	return f, g - s.matBase[f]
}

func (s *Store) loadGlobal(g int, ts *tlr.TileScratch) (*tlr.Tile, error) {
	f, idx := s.locate(g)
	if ts == nil {
		return s.pf.LoadTile(f, idx)
	}
	return s.pf.ReadTile(f, idx, ts)
}

func (s *Store) sizeGlobal(g int) int64 {
	f, idx := s.locate(g)
	return s.pf.Mats[f].TileBytes(idx)
}

// Matrix returns frequency matrix f as an out-of-core tlr.Matrix that
// faults tiles through the store's shared cache. Matrices from repeated
// calls share cached tiles.
func (s *Store) Matrix(f int) (*tlr.Matrix, error) {
	if f < 0 || f >= len(s.pf.Mats) {
		return nil, fmt.Errorf("opstore: matrix %d out of range [0,%d)", f, len(s.pf.Mats))
	}
	pm := s.pf.Mats[f]
	return tlr.NewOutOfCore(pm.M, pm.N, pm.NB, &matSource{st: s, base: s.matBase[f], pm: pm}), nil
}

// Stats snapshots the shared cache counters.
func (s *Store) Stats() CacheStats { return s.cache.stats() }

// Cache exposes the shared tile cache (direct tile access).
func (s *Store) Cache() *Cache { return s.cache }

// Close releases the backing file when the store owns one.
func (s *Store) Close() error {
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}

// matSource adapts one matrix's slice of the shared cache to the
// tlr.TileSource interface.
type matSource struct {
	st   *Store
	base int
	pm   *tlrio.PagedMatrix
}

func (ms *matSource) Tile(idx int, s *tlr.TileScratch) (*tlr.Tile, error) {
	return ms.st.cache.get(ms.base+idx, s)
}

func (ms *matSource) Rank(idx int) int { return ms.pm.Tiles[idx].Rank }
