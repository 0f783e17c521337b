package tlrio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/precision"
	"repro/internal/tlr"
)

// resealPaged recomputes the header and index CRCs of a (possibly
// mutated) paged image in place, when the header is long enough and its
// index range lies inside the image. Without it the two CRCs stop every
// mutation at the door and the index decoder is never reached.
func resealPaged(img []byte) {
	if len(img) < pagedHeaderLen {
		return
	}
	off := binary.LittleEndian.Uint64(img[16:])
	n := binary.LittleEndian.Uint64(img[24:])
	if size := uint64(len(img)); n <= size && off <= size-n {
		binary.LittleEndian.PutUint32(img[32:], crc32.Checksum(img[off:off+n], castagnoli))
	}
	binary.LittleEndian.PutUint32(img[36:], crc32.Checksum(img[:36], castagnoli))
}

// FuzzOpenPaged drives the TLRP container — the format opstore,
// mddserve -store-dir and the out-of-core solves actually read — with
// arbitrary images, as given and with the header/index CRCs resealed:
// OpenPaged plus LoadTile over every tile must never panic, must fail
// only with errors, and must not allocate more than a small multiple of
// the image size (a forged dimension may not size an allocation). On an
// image that loads cleanly, flipping any one payload byte of a tile must
// fail that tile's load with ErrChecksum and no tile — on the in-place
// FP32 route, which verifies the CRC over the tile's own backing store,
// as on the decoding one.
func FuzzOpenPaged(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	tm, err := tlr.Compress(smoothMatrix(rng, 13, 11), tlr.Options{NB: 6, Tol: 1e-4})
	if err != nil {
		f.Fatal(err)
	}
	k := &Kernel{Freqs: []float64{7}, Mats: []*tlr.Matrix{tm}}
	for _, format := range []precision.Format{precision.FP32, precision.FP16} {
		var buf bytes.Buffer
		if err := writePaged(&buf, k, precision.Uniform{F: format}, 64); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), uint16(0))
		f.Add(buf.Bytes()[:buf.Len()/2], uint16(1))
		// a forged 16384×16384, nb=1 geometry under valid CRCs: 2²⁸ tile
		// entries claimed by a 120-byte index
		forged := append([]byte(nil), buf.Bytes()...)
		geom := forged[binary.LittleEndian.Uint64(forged[16:])+8:]
		binary.LittleEndian.PutUint32(geom, 1<<14)
		binary.LittleEndian.PutUint32(geom[4:], 1<<14)
		binary.LittleEndian.PutUint32(geom[8:], 1)
		f.Add(forged, uint16(2))
	}
	f.Add([]byte("TLRP"), uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, flip uint16) {
		sealed := append([]byte(nil), data...)
		resealPaged(sealed)
		for _, img := range [][]byte{data, sealed} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			pf, err := OpenPaged(bytes.NewReader(img), int64(len(img)))
			clean := err == nil
			if pf != nil {
				for mi, pm := range pf.Mats {
					for idx := range pm.Tiles {
						if _, err := pf.LoadTile(mi, idx); err != nil {
							clean = false // a clean failure is the contract
						}
					}
				}
			}
			runtime.ReadMemStats(&after)
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*len(img)+64<<10); got > limit {
				t.Fatalf("decoding a %d-byte image allocated %d bytes (limit %d)", len(img), got, limit)
			}
			if !clean || len(pf.Mats) == 0 {
				continue
			}
			// pick a tile and one of its payload bytes from the selector
			mi := int(flip) % len(pf.Mats)
			idx := int(flip) % len(pf.Mats[mi].Tiles)
			pt := pf.Mats[mi].Tiles[idx]
			if pt.PayloadLen == 0 {
				continue
			}
			mut := append([]byte(nil), img...)
			mut[pt.PageOff+8+int64(int(flip)%pt.PayloadLen)] ^= 0x10
			// in a crafted image the payload may overlap the header or
			// index; the flip then fails OpenPaged instead, which is fine
			if mpf, err := OpenPaged(bytes.NewReader(mut), int64(len(mut))); err == nil {
				for _, inPlace := range []bool{false, true} {
					if tile, err := mpf.loadTile(mi, idx, inPlace); tile != nil || !errors.Is(err, ErrChecksum) {
						t.Fatalf("payload flip in tile %d/%d (inPlace=%v): got tile %v, err %v, want ErrChecksum alone", mi, idx, inPlace, tile != nil, err)
					}
				}
			}
		}
	})
}
