// Package seismic generates the synthetic ocean-bottom seismic dataset the
// reproduction runs MDD on. It substitutes for the paper's 1.8 TB modified
// SEG/EAGE Overthrust dataset (§6.1): a water column over an
// overthrust-style layered medium, a grid of near-surface sources, a grid
// of seafloor receivers, a band-limited wavelet, and frequency-domain
// Green's-function modelling of the downgoing (p+) and upgoing (p−)
// wavefield components — with the free-surface multiple series in p+ that
// MDD must deconvolve. The physics is chosen so that the exact relation
// p− = R ★ p+ holds with a known ground-truth local reflectivity R,
// making the inverse problem well posed for validation while retaining
// the ill-conditioning that distinguishes inversion from cross-correlation.
package seismic

import (
	"fmt"
	"math"
)

// Geometry describes the acquisition layout, mirroring §6.1: a grid of
// sources just below the free surface and a grid of receivers on the
// seafloor, with uniform spacing in the inline (x) and crossline (y)
// directions.
type Geometry struct {
	// NsX, NsY are the source grid extents (paper: 217×120).
	NsX, NsY int
	// NrX, NrY are the receiver grid extents (paper: 177×90).
	NrX, NrY int
	// Dx, Dy are grid spacings in metres (paper: 20 m).
	Dx, Dy float64
	// SrcDepth is the source depth below the free surface (paper: 10 m).
	SrcDepth float64
	// RecDepth is the receiver depth, i.e. the water depth (paper: 300 m).
	RecDepth float64
}

// DefaultGeometry returns a laptop-scale geometry with the paper's aspect
// ratios and depths: ~3:2 source-to-receiver count and the same 20 m
// spacing, 10 m source depth, 300 m water column.
func DefaultGeometry() Geometry {
	return Geometry{
		NsX: 12, NsY: 8,
		NrX: 10, NrY: 6,
		Dx: 20, Dy: 20,
		SrcDepth: 10,
		RecDepth: 300,
	}
}

// NumSources returns the source count NsX·NsY.
func (g Geometry) NumSources() int { return g.NsX * g.NsY }

// NumReceivers returns the receiver count NrX·NrY.
func (g Geometry) NumReceivers() int { return g.NrX * g.NrY }

// sourcePos returns the (x, y, z) coordinates of source index s in the
// natural (y-fastest) ordering.
func (g Geometry) sourcePos(s int) (x, y, z float64) {
	ix := s / g.NsY
	iy := s % g.NsY
	return float64(ix) * g.Dx, float64(iy) * g.Dy, g.SrcDepth
}

// receiverPos returns the (x, y, z) coordinates of receiver index r.
// The receiver grid is centred within the source grid footprint, as in
// typical ocean-bottom acquisitions.
func (g Geometry) receiverPos(r int) (x, y, z float64) {
	ix := r / g.NrY
	iy := r % g.NrY
	offX := float64(g.NsX-g.NrX) / 2 * g.Dx
	offY := float64(g.NsY-g.NrY) / 2 * g.Dy
	return offX + float64(ix)*g.Dx, offY + float64(iy)*g.Dy, g.RecDepth
}

// ReceiverIndex returns the receiver index for grid coordinates (ix, iy).
func (g Geometry) ReceiverIndex(ix, iy int) int {
	if ix < 0 || ix >= g.NrX || iy < 0 || iy >= g.NrY {
		panic(fmt.Sprintf("seismic: receiver (%d,%d) outside %dx%d grid", ix, iy, g.NrX, g.NrY))
	}
	return ix*g.NrY + iy
}

// validate reports whether the geometry is usable.
func (g Geometry) validate() error {
	if g.NsX < 1 || g.NsY < 1 || g.NrX < 1 || g.NrY < 1 {
		return fmt.Errorf("seismic: empty grids (%dx%d sources, %dx%d receivers)", g.NsX, g.NsY, g.NrX, g.NrY)
	}
	for _, c := range []struct {
		name string
		v    float64
	}{{"Dx", g.Dx}, {"Dy", g.Dy}, {"SrcDepth", g.SrcDepth}, {"RecDepth", g.RecDepth}} {
		if math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			return fmt.Errorf("seismic: geometry %s is %g, want a finite number", c.name, c.v)
		}
	}
	if g.Dx <= 0 || g.Dy <= 0 {
		return fmt.Errorf("seismic: nonpositive spacing (%g, %g)", g.Dx, g.Dy)
	}
	if g.RecDepth <= g.SrcDepth {
		return fmt.Errorf("seismic: receivers (%g m) must be below sources (%g m)", g.RecDepth, g.SrcDepth)
	}
	return nil
}
