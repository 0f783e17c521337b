// Package render rasterizes time-domain gathers and velocity sections
// into grayscale PGM images, so the reproduction emits actual figure
// panels (Figs. 11 and 13) and not only summary statistics. PGM (portable
// graymap) needs no image libraries and is viewable everywhere.
package render

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/seismic"
)

// GatherImage rasterizes a gather with traces as columns (time down),
// amplitude mapped symmetrically to black/white around mid-gray, clipped
// at clip×max|amplitude| (clip in (0,1]; 0 means 1). Each trace is
// widened to traceWidth pixels.
func GatherImage(g *seismic.Gather, traceWidth int, clip float64) *Image {
	if traceWidth < 1 {
		traceWidth = 1
	}
	if clip <= 0 || clip > 1 {
		clip = 1
	}
	nTr := g.NumTraces()
	if nTr == 0 {
		return &Image{W: 1, H: 1, Pix: []uint8{128}}
	}
	nt := len(g.Traces[0])
	w := nTr * traceWidth
	img := &Image{W: w, H: nt, Pix: make([]uint8, w*nt)}
	scale := g.MaxAbs() * clip
	if scale == 0 {
		scale = 1
	}
	for tr := 0; tr < nTr; tr++ {
		for t := 0; t < nt && t < len(g.Traces[tr]); t++ {
			v := g.Traces[tr][t] / scale
			if v > 1 {
				v = 1
			}
			if v < -1 {
				v = -1
			}
			p := uint8(math.Round(127.5 + 127.5*v))
			for k := 0; k < traceWidth; k++ {
				img.Pix[t*w+tr*traceWidth+k] = p
			}
		}
	}
	return img
}

// VelocityImage rasterizes a velocity section (x across, depth down) with
// velocity mapped linearly from its minimum (black) to maximum (white).
func VelocityImage(m *seismic.VelocityModel, nx, nz int, dx float64) *Image {
	img := &Image{W: nx, H: nz, Pix: make([]uint8, nx*nz)}
	lo, hi := math.Inf(1), math.Inf(-1)
	vals := make([]float64, nx*nz)
	for iz := 0; iz < nz; iz++ {
		for ix := 0; ix < nx; ix++ {
			v := m.VelocityAt(float64(ix)*dx, float64(iz)*dx)
			vals[iz*nx+ix] = v
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	for i, v := range vals {
		img.Pix[i] = uint8(math.Round(255 * (v - lo) / span))
	}
	return img
}

// Image is an 8-bit grayscale raster.
type Image struct {
	W, H int
	Pix  []uint8
}

// writePGM emits the binary (P5) PGM encoding.
func (im *Image) writePGM(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n255\n", im.W, im.H); err != nil {
		return err
	}
	if _, err := bw.Write(im.Pix); err != nil {
		return err
	}
	return bw.Flush()
}

// SavePGM writes the image to a file.
func (im *Image) SavePGM(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return im.writePGM(f)
}
