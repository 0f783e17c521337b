// Paged on-disk TLR format ("TLRP"). The survey-scale operator of the
// paper is 110 GB compressed — nothing forces it through one sequential
// read. The paged layout gives every tile its own page-aligned region so
// a tiered operator store (internal/opstore) can fault single tiles in
// and out under a byte budget:
//
//	page 0:   magic "TLRP" | version u32 | pageSize u32 | matCount u32 |
//	          indexOff u64 | indexLen u64 | indexCRC u32 | headerCRC u32
//	          (zero-padded to pageSize)
//	per tile: one page-aligned region, payloadLen u32 | payloadCRC u32 |
//	          payload (U panel, then V panel), zero-padded to the next
//	          page boundary
//	index:    at indexOff — per matrix: freq f64, M/N/NB i32, then per
//	          tile rank i32, format u8, pad[3], pageOff u64, payloadLen
//	          u32
//
// All CRCs are CRC-32C (Castagnoli) so a flipped byte in any page or in
// the index surfaces as ErrChecksum at load time, tile-granular.
//
// Panels are stored in the tile's storage tier chosen at build time by a
// precision.Policy: FP32 panels carry raw interleaved float32 pairs;
// FP16/BF16 panels carry one per-panel power-of-two scale exponent
// (int16) followed by uint16 re/im mantissa pairs. The encode/decode
// pair replicates precision.Quantize's per-panel scaling bit for bit, so
// a tile loaded from an FP16 page equals the in-memory quantized tile
// exactly — the differential tests in internal/testkit assert 0 ULPs.
package tlrio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"

	"repro/internal/dense"
	"repro/internal/precision"
	"repro/internal/tlr"
)

var pagedMagic = [4]byte{'T', 'L', 'R', 'P'}

// PagedVersion is the current paged-format version.
const PagedVersion uint32 = 1

// DefaultPageSize is the page granularity used when PagedOptions leaves
// PageSize zero — the common 4 KiB filesystem block.
const DefaultPageSize = 4096

// pagedHeaderLen is the byte length of the fixed header (before its
// zero padding out to one page).
const pagedHeaderLen = 4 + 4 + 4 + 4 + 8 + 8 + 4 + 4

// pagedTileEntryLen is the byte length of one tile's index entry: rank,
// format (padded to 4), page offset, payload length.
const pagedTileEntryLen = 4 + 4 + 8 + 4

// castagnoli is the CRC-32C table shared by writer and reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// PagedOptions configures WritePaged.
type PagedOptions struct {
	// PageSize is the alignment granularity (default DefaultPageSize,
	// minimum 64, must be a multiple of 8).
	PageSize int
	// Policy chooses each tile's storage tier at build time (default
	// uniform FP32).
	Policy precision.Policy
}

func (o PagedOptions) withDefaults() (PagedOptions, error) {
	if o.PageSize == 0 {
		o.PageSize = DefaultPageSize
	}
	if o.PageSize < 64 || o.PageSize%8 != 0 {
		return o, fmt.Errorf("tlrio: page size %d (want a multiple of 8, at least 64)", o.PageSize)
	}
	if o.Policy == nil {
		o.Policy = precision.Uniform{F: precision.FP32}
	}
	return o, nil
}

// PagedTile is one tile's index entry.
type PagedTile struct {
	Rank   int
	Format precision.Format
	// PageOff is the absolute file offset of the tile's page-aligned
	// region; PayloadLen the encoded panel bytes inside it.
	PageOff    int64
	PayloadLen int
}

// PagedMatrix is one frequency matrix's index entry: the grid geometry
// plus one PagedTile per tile (row-major, like tlr.Matrix.Tiles).
type PagedMatrix struct {
	Freq             float64
	M, N, NB, MT, NT int
	Tiles            []PagedTile
}

// tileRows and tileCols return the row/column extent of tile (i,j).
func (pm *PagedMatrix) tileRows(i int) int { return min((i+1)*pm.NB, pm.M) - i*pm.NB }
func (pm *PagedMatrix) tileCols(j int) int { return min((j+1)*pm.NB, pm.N) - j*pm.NB }

// TileBytes returns the decoded in-memory footprint of tile idx: U plus
// V at 8 bytes per complex64 element — what a cache holding the decoded
// tile pays, regardless of the on-disk tier.
func (pm *PagedMatrix) TileBytes(idx int) int64 {
	i, j := idx/pm.NT, idx%pm.NT
	return int64(pm.tileRows(i)+pm.tileCols(j)) * int64(pm.Tiles[idx].Rank) * 8
}

// payloadLen returns the encoded byte length of tile idx under its
// recorded format.
func (pm *PagedMatrix) payloadLen(idx int) int {
	i, j := idx/pm.NT, idx%pm.NT
	k := pm.Tiles[idx].Rank
	if pm.Tiles[idx].Format == precision.FP32 {
		return (pm.tileRows(i) + pm.tileCols(j)) * k * 8
	}
	return 2*2 + (pm.tileRows(i)+pm.tileCols(j))*k*4
}

// WritePaged streams the kernel into the paged format. The index is
// assembled up front from the tile geometry (page offsets are a pure
// function of ranks, formats, and the page size), so the file is written
// strictly sequentially: header page, tile pages, index trailer.
func WritePaged(w io.Writer, k *Kernel, opts PagedOptions) error {
	opts, err := opts.withDefaults()
	if err != nil {
		return err
	}
	if len(k.Freqs) != len(k.Mats) {
		return fmt.Errorf("tlrio: %d freqs but %d matrices", len(k.Freqs), len(k.Mats))
	}
	ps := opts.PageSize
	// Pass 1: geometry → index. pageOff assignment needs every payload
	// length, which needs every rank and format but no panel data.
	mats := make([]*PagedMatrix, len(k.Mats))
	cur := int64(pagedPages(pagedHeaderLen, ps)) * int64(ps)
	for mi, t := range k.Mats {
		for _, v := range []int{t.M, t.N, t.NB} {
			if v <= 0 || v > maxDim {
				return fmt.Errorf("tlrio: matrix %d dimension %d out of range", mi, v)
			}
		}
		pm := &PagedMatrix{
			Freq: k.Freqs[mi], M: t.M, N: t.N, NB: t.NB, MT: t.MT, NT: t.NT,
			Tiles: make([]PagedTile, t.MT*t.NT),
		}
		for i := 0; i < t.MT; i++ {
			for j := 0; j < t.NT; j++ {
				idx := i*t.NT + j
				tile := t.Tile(i, j)
				if tile == nil {
					return fmt.Errorf("tlrio: matrix %d missing tile (%d,%d)", mi, i, j)
				}
				pm.Tiles[idx] = PagedTile{
					Rank:   tile.Rank(),
					Format: opts.Policy.FormatFor(i, j, t.MT, t.NT),
				}
				pm.Tiles[idx].PageOff = cur
				pl := pm.payloadLen(idx)
				pm.Tiles[idx].PayloadLen = pl
				cur += int64(pagedPages(8+pl, ps)) * int64(ps)
			}
		}
		mats[mi] = pm
	}
	index := encodeIndex(mats)

	// Header page.
	hdr := make([]byte, pagedHeaderLen)
	copy(hdr, pagedMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:], PagedVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(ps))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(mats)))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(cur))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(len(index)))
	binary.LittleEndian.PutUint32(hdr[32:], crc32.Checksum(index, castagnoli))
	binary.LittleEndian.PutUint32(hdr[36:], crc32.Checksum(hdr[:36], castagnoli))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if err := writeZeros(w, pagedPages(pagedHeaderLen, ps)*ps-pagedHeaderLen); err != nil {
		return err
	}

	// Tile pages, one encode buffer reused across tiles.
	var buf []byte
	for mi, t := range k.Mats {
		pm := mats[mi]
		for idx, pt := range pm.Tiles {
			tile := t.Tile(idx/t.NT, idx%t.NT)
			buf = encodeTilePayload(buf[:0], tile, pt.Format)
			if len(buf) != pt.PayloadLen {
				return fmt.Errorf("tlrio: matrix %d tile %d encoded %d bytes, planned %d",
					mi, idx, len(buf), pt.PayloadLen)
			}
			var ph [8]byte
			binary.LittleEndian.PutUint32(ph[0:], uint32(len(buf)))
			binary.LittleEndian.PutUint32(ph[4:], crc32.Checksum(buf, castagnoli))
			if _, err := w.Write(ph[:]); err != nil {
				return err
			}
			if _, err := w.Write(buf); err != nil {
				return err
			}
			if err := writeZeros(w, pagedPages(8+len(buf), ps)*ps-8-len(buf)); err != nil {
				return err
			}
		}
	}
	_, err = w.Write(index)
	return err
}

// pagedPages returns how many whole pages n bytes occupy.
func pagedPages(n, pageSize int) int { return (n + pageSize - 1) / pageSize }

// writeZeros pads n zero bytes.
func writeZeros(w io.Writer, n int) error {
	var zeros [512]byte
	for n > 0 {
		c := min(n, len(zeros))
		if _, err := w.Write(zeros[:c]); err != nil {
			return err
		}
		n -= c
	}
	return nil
}

// encodeIndex serializes the per-matrix tile directory.
func encodeIndex(mats []*PagedMatrix) []byte {
	var out []byte
	for _, pm := range mats {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(pm.Freq))
		for _, v := range []int{pm.M, pm.N, pm.NB} {
			out = binary.LittleEndian.AppendUint32(out, uint32(int32(v)))
		}
		for _, pt := range pm.Tiles {
			out = binary.LittleEndian.AppendUint32(out, uint32(int32(pt.Rank)))
			out = append(out, byte(pt.Format), 0, 0, 0)
			out = binary.LittleEndian.AppendUint64(out, uint64(pt.PageOff))
			out = binary.LittleEndian.AppendUint32(out, uint32(pt.PayloadLen))
		}
	}
	return out
}

// encodeTilePayload appends the tile's U then V panel under the format.
func encodeTilePayload(buf []byte, tile *tlr.Tile, f precision.Format) []byte {
	buf = appendPanel(buf, tile.U, f)
	return appendPanel(buf, tile.V, f)
}

// appendPanel encodes one dense panel. FP32 stores raw interleaved
// float32 pairs; the 16-bit tiers store a per-panel power-of-two scale
// exponent and the rounded mantissas, replicating the exact arithmetic
// of precision.Quantize (scale into [1,2) with an exact power of two,
// round through the format, scale back on decode).
func appendPanel(buf []byte, a *dense.Matrix, f precision.Format) []byte {
	if f == precision.FP32 {
		for j := 0; j < a.Cols; j++ {
			for _, v := range a.Col(j) {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(real(v)))
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(imag(v)))
			}
		}
		return buf
	}
	maxAbs := a.MaxAbs()
	e := 0
	scale := 1.0
	if maxAbs > 0 {
		e = math.Ilogb(maxAbs)
		scale = math.Ldexp(1, -e)
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(int16(e)))
	for j := 0; j < a.Cols; j++ {
		for _, v := range a.Col(j) {
			buf = binary.LittleEndian.AppendUint16(buf, encodeReal(f, float32(float64(real(v))*scale)))
			buf = binary.LittleEndian.AppendUint16(buf, encodeReal(f, float32(float64(imag(v))*scale)))
		}
	}
	return buf
}

func encodeReal(f precision.Format, x float32) uint16 {
	if f == precision.BF16 {
		return precision.F32ToBF16(x)
	}
	return precision.F32ToF16(x)
}

func decodeReal(f precision.Format, h uint16) float32 {
	if f == precision.BF16 {
		return precision.BF16ToF32(h)
	}
	return precision.F16ToF32(h)
}

// PagedFile is an open paged kernel: the verified index plus the backing
// reader. Tile loads are independent positioned reads, safe for
// concurrent use when the underlying ReaderAt is (os.File and
// bytes.Reader both are).
type PagedFile struct {
	r        io.ReaderAt
	size     int64
	PageSize int
	Mats     []*PagedMatrix
}

// OpenPaged validates the header and index of a paged kernel of the
// given total size and returns a handle for tile loads. No tile data is
// read or verified here — page CRCs are checked lazily by LoadTile.
func OpenPaged(r io.ReaderAt, size int64) (*PagedFile, error) {
	hdr := make([]byte, pagedHeaderLen)
	if size < int64(pagedHeaderLen) {
		return nil, fmt.Errorf("tlrio: paged file truncated (%d bytes)", size)
	}
	if _, err := r.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("tlrio: reading paged header: %w", err)
	}
	if [4]byte(hdr[:4]) != pagedMagic {
		return nil, fmt.Errorf("tlrio: bad paged magic %q", hdr[:4])
	}
	if got, want := crc32.Checksum(hdr[:36], castagnoli), binary.LittleEndian.Uint32(hdr[36:]); got != want {
		return nil, fmt.Errorf("%w in paged header (file %08x, computed %08x)", ErrChecksum, want, got)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != PagedVersion {
		return nil, fmt.Errorf("tlrio: unsupported paged version %d (have %d)", v, PagedVersion)
	}
	ps := int(binary.LittleEndian.Uint32(hdr[8:]))
	if ps < 64 || ps%8 != 0 {
		return nil, fmt.Errorf("tlrio: implausible page size %d", ps)
	}
	count := binary.LittleEndian.Uint32(hdr[12:])
	if count > maxDim {
		return nil, fmt.Errorf("tlrio: implausible matrix count %d", count)
	}
	indexOff := int64(binary.LittleEndian.Uint64(hdr[16:]))
	indexLen := int64(binary.LittleEndian.Uint64(hdr[24:]))
	if indexOff < 0 || indexLen < 0 || indexLen > size || indexOff > size-indexLen {
		return nil, fmt.Errorf("tlrio: index [%d,%d) outside file of %d bytes", indexOff, indexOff+indexLen, size)
	}
	index := make([]byte, indexLen)
	if _, err := r.ReadAt(index, indexOff); err != nil {
		return nil, fmt.Errorf("tlrio: reading index: %w", err)
	}
	if got, want := crc32.Checksum(index, castagnoli), binary.LittleEndian.Uint32(hdr[32:]); got != want {
		return nil, fmt.Errorf("%w in paged index (file %08x, computed %08x)", ErrChecksum, want, got)
	}
	pf := &PagedFile{r: r, size: size, PageSize: ps}
	for mi := uint32(0); mi < count; mi++ {
		pm, rest, err := decodeIndexMatrix(index, size)
		if err != nil {
			return nil, fmt.Errorf("tlrio: index matrix %d: %w", mi, err)
		}
		index = rest
		pf.Mats = append(pf.Mats, pm)
	}
	if len(index) != 0 {
		return nil, fmt.Errorf("tlrio: %d trailing index bytes", len(index))
	}
	return pf, nil
}

// decodeIndexMatrix consumes one matrix entry from the index bytes.
func decodeIndexMatrix(b []byte, size int64) (*PagedMatrix, []byte, error) {
	if len(b) < 8+3*4 {
		return nil, nil, fmt.Errorf("truncated geometry")
	}
	pm := &PagedMatrix{Freq: math.Float64frombits(binary.LittleEndian.Uint64(b))}
	pm.M = int(int32(binary.LittleEndian.Uint32(b[8:])))
	pm.N = int(int32(binary.LittleEndian.Uint32(b[12:])))
	pm.NB = int(int32(binary.LittleEndian.Uint32(b[16:])))
	b = b[20:]
	for _, v := range []int{pm.M, pm.N, pm.NB} {
		if v <= 0 || v > maxDim {
			return nil, nil, fmt.Errorf("dimension %d out of range", v)
		}
	}
	pm.MT = (pm.M + pm.NB - 1) / pm.NB
	pm.NT = (pm.N + pm.NB - 1) / pm.NB
	// every tile has a pagedTileEntryLen-byte entry: check before a forged
	// geometry sizes the allocation
	tiles := pm.MT * pm.NT
	if tiles > len(b)/pagedTileEntryLen {
		return nil, nil, fmt.Errorf("%d tile entries in %d index bytes", tiles, len(b))
	}
	pm.Tiles = make([]PagedTile, tiles)
	for idx := range pm.Tiles {
		pt := PagedTile{
			Rank:       int(int32(binary.LittleEndian.Uint32(b))),
			Format:     precision.Format(b[4]),
			PageOff:    int64(binary.LittleEndian.Uint64(b[8:])),
			PayloadLen: int(binary.LittleEndian.Uint32(b[16:])),
		}
		b = b[pagedTileEntryLen:]
		if pt.Rank < 0 || pt.Rank > pm.NB {
			return nil, nil, fmt.Errorf("tile %d rank %d out of [0,%d]", idx, pt.Rank, pm.NB)
		}
		switch pt.Format {
		case precision.FP32, precision.FP16, precision.BF16:
		default:
			return nil, nil, fmt.Errorf("tile %d unknown format %d", idx, pt.Format)
		}
		if pt.PageOff < 0 || int64(pt.PayloadLen) < 0 ||
			pt.PageOff > size || int64(pt.PayloadLen)+8 > size-pt.PageOff {
			return nil, nil, fmt.Errorf("tile %d region [%d,%d) outside file", idx, pt.PageOff, pt.PageOff+int64(pt.PayloadLen)+8)
		}
		pm.Tiles[idx] = pt
		if want := pm.payloadLen(idx); pt.PayloadLen != want {
			return nil, nil, fmt.Errorf("tile %d payload %d bytes, geometry implies %d", idx, pt.PayloadLen, want)
		}
	}
	return pm, b, nil
}

// hostLittleEndian reports whether this host's memory order is the
// file's byte order, i.e. whether an FP32 payload is already the
// in-memory form of its []complex64.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// LoadTile reads, CRC-verifies, and decodes one tile into storage of its
// own. The returned tile holds FP32 compute values: reduced-tier pages
// are dequantized through the per-panel scale exactly as
// precision.Quantize would produce them.
func (pf *PagedFile) LoadTile(mat, idx int) (*tlr.Tile, error) {
	return pf.loadTile(mat, idx, hostLittleEndian)
}

// ReadTile is LoadTile into the caller's scratch, with every length and
// CRC check of LoadTile: the returned tile lives in s until s is read
// into again. s.Data and s.Page are grown only when too short, so a
// scratch reused across reads stops allocating once it has held the
// largest tile.
func (pf *PagedFile) ReadTile(mat, idx int, s *tlr.TileScratch) (*tlr.Tile, error) {
	return pf.readTile(mat, idx, s, hostLittleEndian)
}

// loadTile is LoadTile with the FP32 route explicit (the tests run both
// on one host): readTile into a scratch of its own, sized to the tile.
func (pf *PagedFile) loadTile(mat, idx int, inPlace bool) (*tlr.Tile, error) {
	s := new(tlr.TileScratch)
	t, err := pf.readTile(mat, idx, s, inPlace)
	// the tile keeps s alive, and has no use for a reduced tier's page
	s.Page = nil
	return t, err
}

// readTile is the one tile read. The factors land in s.Data[1:], grown
// to the tile when it is too short. With inPlace, an FP32 page is read
// straight into s.Data — no element loop; the 8-byte page header lands
// in element 0, which the factors skip. The CRC is verified over those
// same bytes before any tile is returned. Reduced tiers, and FP32 where
// memory order differs from the file's, are read into s.Page and
// decoded into s.Data.
func (pf *PagedFile) readTile(mat, idx int, s *tlr.TileScratch, inPlace bool) (*tlr.Tile, error) {
	if mat < 0 || mat >= len(pf.Mats) {
		return nil, fmt.Errorf("tlrio: matrix %d out of range", mat)
	}
	pm := pf.Mats[mat]
	if idx < 0 || idx >= len(pm.Tiles) {
		return nil, fmt.Errorf("tlrio: tile %d out of range", idx)
	}
	pt := pm.Tiles[idx]
	rows, cols, k := pm.tileRows(idx/pm.NT), pm.tileCols(idx%pm.NT), pt.Rank
	n := 1 + (rows+cols)*k
	if cap(s.Data) < n {
		s.Data = make([]complex64, n)
	}
	data := s.Data[:n]
	if inPlace && pt.Format == precision.FP32 {
		// OpenPaged checked PayloadLen == (rows+cols)·k·8 for this tile.
		page := unsafe.Slice((*byte)(unsafe.Pointer(&data[0])), 8*n)
		if err := pf.readPage(page, idx, pt); err != nil {
			return nil, err
		}
	} else {
		if cap(s.Page) < 8+pt.PayloadLen {
			s.Page = make([]byte, 8+pt.PayloadLen)
		}
		page := s.Page[:8+pt.PayloadLen]
		if err := pf.readPage(page, idx, pt); err != nil {
			return nil, err
		}
		rest := decodePanel(page[8:], data[1:1+rows*k], pt.Format)
		decodePanel(rest, data[1+rows*k:], pt.Format)
	}
	return s.View(rows, cols, k, data[1:]), nil
}

// readPage fills page (8+PayloadLen bytes) from tile idx's region and
// verifies its length word and CRC-32C.
func (pf *PagedFile) readPage(page []byte, idx int, pt PagedTile) error {
	if _, err := pf.r.ReadAt(page, pt.PageOff); err != nil {
		return fmt.Errorf("tlrio: reading tile %d page: %w", idx, err)
	}
	if got := int(binary.LittleEndian.Uint32(page)); got != pt.PayloadLen {
		return fmt.Errorf("tlrio: tile %d page header says %d payload bytes, index says %d", idx, got, pt.PayloadLen)
	}
	if got, want := crc32.Checksum(page[8:], castagnoli), binary.LittleEndian.Uint32(page[4:]); got != want {
		return fmt.Errorf("%w in tile %d page (file %08x, computed %08x)", ErrChecksum, idx, want, got)
	}
	return nil
}

// decodePanel decodes one panel of len(dst) elements, column-major with
// a tight stride, from the payload into dst and returns the rest of the
// payload.
func decodePanel(b []byte, dst []complex64, f precision.Format) []byte {
	if f == precision.FP32 {
		for i := range dst {
			re := math.Float32frombits(binary.LittleEndian.Uint32(b))
			im := math.Float32frombits(binary.LittleEndian.Uint32(b[4:]))
			dst[i] = complex(re, im)
			b = b[8:]
		}
		return b
	}
	e := int(int16(binary.LittleEndian.Uint16(b)))
	b = b[2:]
	inv := math.Ldexp(1, e)
	for i := range dst {
		re := decodeReal(f, binary.LittleEndian.Uint16(b))
		im := decodeReal(f, binary.LittleEndian.Uint16(b[2:]))
		dst[i] = complex(float32(float64(re)*inv), float32(float64(im)*inv))
		b = b[4:]
	}
	return b
}
