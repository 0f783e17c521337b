package tlrio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dense"
	"repro/internal/precision"
	"repro/internal/tlr"
)

// FuzzRead asserts the decoder never panics or over-allocates on
// arbitrary input — it must fail cleanly on anything but a valid stream.
func FuzzRead(f *testing.F) {
	// seeds: valid stream, truncations, bit flips
	rng := rand.New(rand.NewSource(1))
	a := dense.RandomLowRank(rng, 24, 20, 2)
	tm, err := tlr.Compress(a, tlr.Options{NB: 8, Tol: 1e-4})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, &Kernel{Freqs: []float64{7}, Mats: []*tlr.Matrix{tm}}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:8])
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("TLRK"))
	f.Add([]byte{})
	mut := append([]byte(nil), valid...)
	mut[10] ^= 0x80
	f.Add(mut)
	mut2 := append([]byte(nil), valid...)
	// blow up a dimension field
	for i := 16; i < 28 && i < len(mut2); i++ {
		mut2[i] = 0xFF
	}
	f.Add(mut2)

	f.Fuzz(func(t *testing.T, data []byte) {
		k, err := Read(bytes.NewReader(data))
		if err != nil {
			return // clean failure is the contract
		}
		// a successfully decoded kernel must be internally consistent
		if len(k.Freqs) != len(k.Mats) {
			t.Fatal("decoded kernel with mismatched lengths")
		}
		for _, m := range k.Mats {
			if m.M <= 0 || m.N <= 0 || m.NB <= 0 {
				t.Fatal("decoded matrix with nonpositive dims")
			}
			if len(m.Tiles) != m.MT*m.NT {
				t.Fatal("decoded matrix with wrong tile count")
			}
		}
	})
}

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
// fail that tile's load with ErrChecksum.
func FuzzOpenPaged(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	tm, err := tlr.Compress(smoothMatrix(rng, 13, 11), tlr.Options{NB: 6, Tol: 1e-4})
	if err != nil {
		f.Fatal(err)
	}
	k := &Kernel{Freqs: []float64{7}, Mats: []*tlr.Matrix{tm}}
	for _, format := range []precision.Format{precision.FP32, precision.FP16} {
		var buf bytes.Buffer
		if err := WritePaged(&buf, k, PagedOptions{PageSize: 64, Policy: precision.Uniform{F: format}}); err != nil {
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
				if _, err := mpf.LoadTile(mi, idx); !errors.Is(err, ErrChecksum) {
					t.Fatalf("payload flip in tile %d/%d: got %v, want ErrChecksum", mi, idx, err)
				}
			}
		}
	})
}
