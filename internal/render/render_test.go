package render

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"testing"

	"repro/internal/seismic"
)

// at returns the pixel at (x, y).
func (im *Image) at(x, y int) uint8 { return im.Pix[y*im.W+x] }

// readPGM parses a binary P5 PGM.
func readPGM(r io.Reader) (*Image, error) {
	br := bufio.NewReader(r)
	var m string
	var w, h, maxv int
	if _, err := fmt.Fscan(br, &m, &w, &h, &maxv); err != nil {
		return nil, fmt.Errorf("render: PGM header: %w", err)
	}
	if m != "P5" || maxv != 255 {
		return nil, fmt.Errorf("render: unsupported PGM %q max %d", m, maxv)
	}
	if w <= 0 || h <= 0 || w*h > 1<<28 {
		return nil, fmt.Errorf("render: bad dimensions %dx%d", w, h)
	}
	if _, err := br.ReadByte(); err != nil { // single whitespace after header
		return nil, err
	}
	pix := make([]uint8, w*h)
	if _, err := io.ReadFull(br, pix); err != nil {
		return nil, err
	}
	return &Image{W: w, H: h, Pix: pix}, nil
}

func testGather() *seismic.Gather {
	return &seismic.Gather{
		Traces: [][]float64{
			{0, 1, 0, -1},
			{0.5, 0, -0.5, 0},
		},
		Dt: 0.004,
	}
}

func TestGatherImageMapping(t *testing.T) {
	img := GatherImage(testGather(), 1, 1)
	if img.W != 2 || img.H != 4 {
		t.Fatalf("image %dx%d", img.W, img.H)
	}
	// amplitude +1 → 255, −1 → 0, 0 → ~128
	if img.at(0, 1) != 255 {
		t.Errorf("peak pixel %d", img.at(0, 1))
	}
	if img.at(0, 3) != 0 {
		t.Errorf("trough pixel %d", img.at(0, 3))
	}
	if v := img.at(0, 0); v < 126 || v > 130 {
		t.Errorf("zero pixel %d", v)
	}
	// half amplitude lands mid-way
	if v := img.at(1, 0); v < 180 || v > 200 {
		t.Errorf("half-amplitude pixel %d", v)
	}
}

func TestGatherImageTraceWidthAndClip(t *testing.T) {
	img := GatherImage(testGather(), 3, 0.5)
	if img.W != 6 {
		t.Fatalf("width %d", img.W)
	}
	// widened pixels identical
	if img.at(0, 1) != img.at(1, 1) || img.at(1, 1) != img.at(2, 1) {
		t.Error("trace widening broken")
	}
	// clip 0.5: amplitude 1 saturates, 0.5 maps to full white too
	if img.at(3, 0) != 255 {
		t.Errorf("clipped half-amplitude pixel %d", img.at(3, 0))
	}
}

func TestEmptyGather(t *testing.T) {
	img := GatherImage(&seismic.Gather{}, 2, 1)
	if img.W != 1 || img.H != 1 {
		t.Error("empty gather should give 1x1 placeholder")
	}
}

func TestZeroGatherMidGray(t *testing.T) {
	g := &seismic.Gather{Traces: [][]float64{{0, 0}}, Dt: 1}
	img := GatherImage(g, 1, 1)
	for _, p := range img.Pix {
		if p < 127 || p > 129 {
			t.Fatalf("zero trace pixel %d", p)
		}
	}
}

func TestVelocityImageStructure(t *testing.T) {
	ds, err := seismic.Generate(seismic.Options{
		Geom: seismic.Geometry{NsX: 2, NsY: 2, NrX: 2, NrY: 2, Dx: 20, Dy: 20, SrcDepth: 10, RecDepth: 300},
		Nt:   32, Dt: 0.004,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := ds.Model
	img := VelocityImage(m, 60, 120, 20)
	if img.W != 60 || img.H != 120 {
		t.Fatal("bad dimensions")
	}
	// water (slowest) must be darker than the deepest rock (fastest)
	if img.at(5, 5) >= img.at(5, 119) {
		t.Errorf("water %d not darker than basement %d", img.at(5, 5), img.at(5, 119))
	}
	// min maps to 0 and max to 255 somewhere
	var lo, hi uint8 = 255, 0
	for _, p := range img.Pix {
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	if lo != 0 || hi != 255 {
		t.Errorf("range [%d,%d], want [0,255]", lo, hi)
	}
}

func TestPGMRoundTrip(t *testing.T) {
	img := GatherImage(testGather(), 2, 1)
	var buf bytes.Buffer
	if err := img.writePGM(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := readPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.W != img.W || back.H != img.H {
		t.Fatal("dimensions changed")
	}
	for i := range img.Pix {
		if back.Pix[i] != img.Pix[i] {
			t.Fatalf("pixel %d changed", i)
		}
	}
}

func TestReadPGMRejectsGarbage(t *testing.T) {
	if _, err := readPGM(bytes.NewReader([]byte("P6\n2 2\n255\nxxxx"))); err == nil {
		t.Error("P6 accepted")
	}
	if _, err := readPGM(bytes.NewReader([]byte("P5\n-1 2\n255\n"))); err == nil {
		t.Error("negative width accepted")
	}
	if _, err := readPGM(bytes.NewReader([]byte("P5\n4 4\n255\nab"))); err == nil {
		t.Error("truncated pixels accepted")
	}
}

func TestSavePGM(t *testing.T) {
	img := GatherImage(testGather(), 1, 1)
	path := t.TempDir() + "/g.pgm"
	if err := img.SavePGM(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := readPGM(bytes.NewReader(f))
	if err != nil {
		t.Fatal(err)
	}
	if back.W != img.W {
		t.Error("saved file wrong")
	}
}
