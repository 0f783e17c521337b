package tlrio

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dense"
	"repro/internal/precision"
	"repro/internal/tlr"
)

func smoothMatrix(rng *rand.Rand, m, n int) *dense.Matrix {
	a := dense.New(m, n)
	for t := 0; t < 4; t++ {
		fu := 0.5 + rng.Float64()*2
		fv := 0.5 + rng.Float64()*2
		amp := math.Pow(0.6, float64(t))
		for j := 0; j < n; j++ {
			vj := complex(amp*math.Cos(fv*float64(j)/float64(n)*math.Pi),
				amp*math.Sin(fv*float64(j)/float64(n)*math.Pi))
			for i := 0; i < m; i++ {
				ui := complex(math.Cos(fu*float64(i)/float64(m)*math.Pi),
					math.Sin(fu*float64(i)/float64(m)*math.Pi))
				a.Set(i, j, a.At(i, j)+complex64(ui*vj))
			}
		}
	}
	return a
}

// kernelOf compresses nf smooth m×n matrices at tile size nb into a
// kernel with frequencies f0, f0+1, ….
func kernelOf(t *testing.T, seed int64, nf, m, n, nb int, f0 float64) *Kernel {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	k := &Kernel{}
	for f := 0; f < nf; f++ {
		tm, err := tlr.Compress(smoothMatrix(rng, m, n), tlr.Options{NB: nb, Tol: 1e-4})
		if err != nil {
			t.Fatal(err)
		}
		k.Freqs = append(k.Freqs, f0+float64(f))
		k.Mats = append(k.Mats, tm)
	}
	return k
}

// testKernel is three 53x47 matrices at nb=16 (ragged edge tiles).
func testKernel(t *testing.T) *Kernel { return kernelOf(t, 3, 3, 53, 47, 16, 5) }

// smallKernel is a compact two-matrix kernel with ragged edge tiles
// (13x11 with nb=6) so the corruption tables stay cheap to sweep.
func smallKernel(t *testing.T) *Kernel { return kernelOf(t, 11, 2, 13, 11, 6, 3) }

// pagedImage serializes a kernel to an in-memory paged file of page
// size ps.
func pagedImage(t *testing.T, k *Kernel, pol precision.Policy, ps int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writePaged(&buf, k, pol, ps); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadAll opens an image and decodes every tile on the given FP32 route
// (see loadTile), returning nil tiles on the first error.
func loadAll(img []byte, inPlace bool) ([][]*tlr.Tile, error) {
	pf, err := OpenPaged(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		return nil, err
	}
	out := make([][]*tlr.Tile, len(pf.Mats))
	for mi, pm := range pf.Mats {
		out[mi] = make([]*tlr.Tile, len(pm.Tiles))
		for idx := range pm.Tiles {
			tile, err := pf.loadTile(mi, idx, inPlace)
			if err != nil {
				return nil, err
			}
			out[mi][idx] = tile
		}
	}
	return out, nil
}

func tilesEqual(a, b *tlr.Tile) bool {
	if a.Rank() != b.Rank() || a.U.Rows != b.U.Rows || a.V.Rows != b.V.Rows {
		return false
	}
	for _, pair := range [][2]interface{ Col(int) []complex64 }{{a.U, b.U}, {a.V, b.V}} {
		for j := 0; j < a.Rank(); j++ {
			ca, cb := pair[0].Col(j), pair[1].Col(j)
			for i := range ca {
				if ca[i] != cb[i] {
					return false
				}
			}
		}
	}
	return true
}

// TestPagedRoundTripFP32 checks the default (fp32) paged store decodes
// every tile bit-identically, across page sizes including ones forcing
// multi-page tiles.
func TestPagedRoundTripFP32(t *testing.T) {
	k := testKernel(t)
	for _, ps := range []int{64, 256, pageSize} {
		img := pagedImage(t, k, nil, ps)
		pf, err := OpenPaged(bytes.NewReader(img), int64(len(img)))
		if err != nil {
			t.Fatalf("ps=%d: %v", ps, err)
		}
		if pf.PageSize != ps || len(pf.Mats) != len(k.Mats) {
			t.Fatalf("ps=%d: got pageSize=%d mats=%d", ps, pf.PageSize, len(pf.Mats))
		}
		for mi, tm := range k.Mats {
			pm := pf.Mats[mi]
			if pm.Freq != k.Freqs[mi] || pm.M != tm.M || pm.N != tm.N || pm.NB != tm.NB {
				t.Fatalf("ps=%d mat=%d: geometry mismatch %+v", ps, mi, pm)
			}
			for idx := range pm.Tiles {
				got, err := pf.LoadTile(mi, idx)
				if err != nil {
					t.Fatalf("ps=%d mat=%d tile=%d: %v", ps, mi, idx, err)
				}
				if !tilesEqual(got, tm.Tile(idx/tm.NT, idx%tm.NT)) {
					t.Fatalf("ps=%d mat=%d tile=%d: fp32 round trip not bit-exact", ps, mi, idx)
				}
			}
		}
	}
}

// TestPagedTiersMatchQuantize checks that a tile decoded from a reduced
// storage tier equals precision.Quantize of the in-memory tile exactly
// (0 ULPs) — the paged encoder replicates the quantizer's per-panel
// power-of-two scaling bit for bit, which is what lets the differential
// oracle hold store-backed and in-memory quantized paths to identical
// outputs.
func TestPagedTiersMatchQuantize(t *testing.T) {
	k := smallKernel(t)
	policies := []precision.Policy{
		precision.Uniform{F: precision.FP16},
		precision.Uniform{F: precision.BF16},
		precision.DiagonalBand{Band: 0.25, Demoted: precision.FP16},
		precision.DiagonalBand{Band: 0.25, Demoted: precision.BF16},
	}
	for _, pol := range policies {
		img := pagedImage(t, k, pol, 128)
		pf, err := OpenPaged(bytes.NewReader(img), int64(len(img)))
		if err != nil {
			t.Fatalf("%T: %v", pol, err)
		}
		for mi, tm := range k.Mats {
			q, err := precision.Quantize(tm, pol)
			if err != nil {
				t.Fatal(err)
			}
			for idx := range pf.Mats[mi].Tiles {
				got, err := pf.LoadTile(mi, idx)
				if err != nil {
					t.Fatalf("%T mat=%d tile=%d: %v", pol, mi, idx, err)
				}
				if !tilesEqual(got, q.T.Tile(idx/tm.NT, idx%tm.NT)) {
					t.Fatalf("%+v mat=%d tile=%d: decode differs from precision.Quantize", pol, mi, idx)
				}
			}
		}
	}
}

// TestPagedCorruptionTable flips one byte at every offset of a small
// paged image and asserts the corruption never goes unnoticed: either
// open/load errors (CRC-32C mismatches wrap ErrChecksum; header and
// index damage may also surface structurally), or — for flips landing
// in the zero padding between a payload and its page boundary — every
// tile still decodes bit-identically to the original.
func TestPagedCorruptionTable(t *testing.T) {
	k := smallKernel(t)
	img := pagedImage(t, k, precision.DiagonalBand{Band: 0.3, Demoted: precision.FP16}, 64)
	// both FP32 routes, whatever this host's LoadTile picks: the in-place
	// read verifies the CRC over the tile's own backing store and must
	// refuse a flipped payload exactly as the decoder does
	for _, inPlace := range []bool{false, true} {
		want, err := loadAll(img, inPlace)
		if err != nil {
			t.Fatal(err)
		}
		var errCount, checksumCount, padCount int
		for off := range img {
			mut := bytes.Clone(img)
			mut[off] ^= 0x40
			got, err := loadAll(mut, inPlace)
			if err != nil {
				errCount++
				if errors.Is(err, ErrChecksum) {
					checksumCount++
				}
				continue
			}
			padCount++
			for mi := range want {
				for idx := range want[mi] {
					if !tilesEqual(got[mi][idx], want[mi][idx]) {
						t.Fatalf("inPlace=%v offset %d: flip in unprotected bytes changed tile %d/%d", inPlace, off, mi, idx)
					}
				}
			}
		}
		if errCount == 0 || checksumCount == 0 {
			t.Fatalf("inPlace=%v corruption sweep: %d errors (%d checksum) over %d offsets", inPlace, errCount, checksumCount, len(img))
		}
		t.Logf("inPlace=%v swept %d offsets: %d errored (%d via ErrChecksum), %d landed in padding", inPlace, len(img), errCount, checksumCount, padCount)
	}
}

// TestPagedFP32InPlaceMatchesDecode runs every tile of an all-FP32
// kernel with ragged edge tiles, zero-rank tiles and full-rank tiles
// through both FP32 routes of loadTile — the in-place page read
// little-endian hosts take and the decodePanel element loop — and
// requires the same panels bit for bit, each equal to what was written.
func TestPagedFP32InPlaceMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const m, n, nb = 13, 11, 6 // 3×2 tiles, last row 1 high, last column 5 wide
	mt, nt := (m+nb-1)/nb, (n+nb-1)/nb
	tm := &tlr.Matrix{M: m, N: n, NB: nb, MT: mt, NT: nt, Tiles: make([]*tlr.Tile, mt*nt)}
	for i := 0; i < mt; i++ {
		for j := 0; j < nt; j++ {
			rows, cols := min((i+1)*nb, m)-i*nb, min((j+1)*nb, n)-j*nb
			k := min([]int{0, 2, nb}[(i+j)%3], rows, cols)
			tm.Tiles[i*nt+j] = &tlr.Tile{U: dense.Random(rng, rows, k), V: dense.Random(rng, cols, k)}
		}
	}
	for _, ps := range []int{64, pageSize} {
		img := pagedImage(t, &Kernel{Freqs: []float64{9}, Mats: []*tlr.Matrix{tm}}, nil, ps)
		pf, err := OpenPaged(bytes.NewReader(img), int64(len(img)))
		if err != nil {
			t.Fatal(err)
		}
		for idx, src := range tm.Tiles {
			inPlace, err := pf.loadTile(0, idx, true)
			if err != nil {
				t.Fatalf("ps=%d tile %d in place: %v", ps, idx, err)
			}
			decoded, err := pf.loadTile(0, idx, false)
			if err != nil {
				t.Fatalf("ps=%d tile %d decoded: %v", ps, idx, err)
			}
			if !tilesEqual(inPlace, decoded) {
				t.Errorf("ps=%d tile %d (rank %d): in-place and decoded panels differ", ps, idx, src.Rank())
			}
			if !tilesEqual(decoded, src) {
				t.Errorf("ps=%d tile %d (rank %d): decoded panels differ from the written ones", ps, idx, src.Rank())
			}
		}
	}
}

// TestPagedOpenRejectsTruncation covers structural validation: images
// cut mid-index or mid-header, or carrying a foreign magic or version,
// must error rather than misparse, and a kernel whose frequency and
// matrix lists disagree must not be written at all.
func TestPagedOpenRejectsTruncation(t *testing.T) {
	k := smallKernel(t)
	img := pagedImage(t, k, nil, 64)
	open := func(img []byte) error {
		_, err := OpenPaged(bytes.NewReader(img), int64(len(img)))
		return err
	}
	badMagic := bytes.Clone(img)
	copy(badMagic, "NOPE")
	badVersion := bytes.Clone(img)
	badVersion[4] = 99 // version, little-endian low byte
	resealPaged(badVersion)
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"cut to nothing", open(img[:0]), "truncated"},
		{"cut mid-magic-to-version", open(img[:8]), "truncated"},
		{"cut one byte short of the header", open(img[:pagedHeaderLen-1]), "truncated"},
		{"cut mid-file", open(img[:len(img)/2]), "outside file"},
		{"cut one byte short", open(img[:len(img)-1]), "outside file"},
		{"bad magic", open(badMagic), "magic"},
		{"bad version", open(badVersion), "version"},
		{"freqs and mats disagree", WritePaged(io.Discard, &Kernel{Freqs: k.Freqs[:1], Mats: k.Mats}, nil), "1 freqs but 2 matrices"},
	}
	for _, c := range cases {
		if c.err == nil || !strings.Contains(c.err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, c.err, c.want)
		}
	}
}
