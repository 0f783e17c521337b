package repro

// A 2D acoustic staggered-grid (velocity–pressure, Virieux-style)
// finite-difference solver with a free surface on top and sponge
// absorbing boundaries elsewhere: an oracle independent of the
// frequency-domain Green's functions seismic.Generate builds the MDC
// kernel from. TestFDModelKinematicsMatchGreensFunctions holds the two
// to the same direct arrival; the tests below hold the solver to the
// physics that check relies on.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/seismic"
)

// The absorbing sponge: its thickness in cells (at most half the grid's
// width) and its Cerjan damping strength.
const (
	spongeWidth = 30
	spongeAlpha = 0.0015
)

type fdGrid struct {
	// NX, NZ are grid extents (x across, z down; z=0 is the free surface).
	NX, NZ int
	// DX is the spatial step in metres (uniform in x and z), DT the time
	// step in seconds, NT the number of time steps.
	DX, DT float64
	NT     int
}

// fdModel is the medium: P velocity per cell, row-major Vel[iz*NX+ix]
// (m/s), and a constant density (kg/m³).
type fdModel struct {
	Vel []float64
	Rho float64
}

// fdSource is a pressure point source; its wavelet has one sample per
// step (a shorter one is zero-extended).
type fdSource struct {
	IX, IZ  int
	Wavelet []float64
}

// fdReceiver records pressure at a cell.
type fdReceiver struct{ IX, IZ int }

type fdConfig struct {
	Grid  fdGrid
	Model fdModel
	Src   fdSource
	Recs  []fdReceiver
}

// rickerWavelet returns a Ricker pulse with peak frequency f0 delayed by
// t0 seconds, sampled at dt over nt steps.
func rickerWavelet(f0, t0, dt float64, nt int) []float64 {
	w := make([]float64, nt)
	for i := range w {
		t := float64(i)*dt - t0
		a := math.Pi * f0 * t
		w[i] = (1 - 2*a*a) * math.Exp(-a*a)
	}
	return w
}

// cfl returns the Courant number dt·vmax·√2/dx; stability requires < 1.
func (c fdConfig) cfl() float64 {
	var vmax float64
	for _, v := range c.Model.Vel {
		vmax = max(vmax, v)
	}
	return c.Grid.DT * vmax * math.Sqrt2 / c.Grid.DX
}

func (c fdConfig) validate() error {
	g := c.Grid
	if g.NX < 3 || g.NZ < 3 || g.NT < 1 {
		return fmt.Errorf("grid too small (%dx%d, %d steps)", g.NX, g.NZ, g.NT)
	}
	if g.DX <= 0 || g.DT <= 0 {
		return fmt.Errorf("nonpositive steps dx=%g dt=%g", g.DX, g.DT)
	}
	if len(c.Model.Vel) != g.NX*g.NZ {
		return fmt.Errorf("velocity field has %d cells, want %d", len(c.Model.Vel), g.NX*g.NZ)
	}
	for i, v := range c.Model.Vel {
		if v <= 0 {
			return fmt.Errorf("nonpositive velocity at cell %d", i)
		}
	}
	if c.Model.Rho <= 0 {
		return fmt.Errorf("nonpositive density")
	}
	if cfl := c.cfl(); cfl >= 1 {
		return fmt.Errorf("CFL %.3f >= 1 (reduce dt or increase dx)", cfl)
	}
	if c.Src.IX < 0 || c.Src.IX >= g.NX || c.Src.IZ < 0 || c.Src.IZ >= g.NZ {
		return fmt.Errorf("source (%d,%d) outside grid", c.Src.IX, c.Src.IZ)
	}
	for i, r := range c.Recs {
		if r.IX < 0 || r.IX >= g.NX || r.IZ < 0 || r.IZ >= g.NZ {
			return fmt.Errorf("receiver %d (%d,%d) outside grid", i, r.IX, r.IZ)
		}
	}
	return nil
}

// run steps the simulation and returns each receiver's pressure trace,
// one sample per step.
func (c fdConfig) run() ([][]float64, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	g := c.Grid
	nx, nz := g.NX, g.NZ
	sw := min(spongeWidth, nx/2)

	p := make([]float64, nx*nz)
	vx := make([]float64, nx*nz)
	vz := make([]float64, nx*nz)
	dtRho := g.DT / (c.Model.Rho * g.DX)
	kap := make([]float64, nx*nz) // ρc²·dt/dx
	for i, v := range c.Model.Vel {
		kap[i] = c.Model.Rho * v * v * g.DT / g.DX
	}
	// Cerjan sponge taper (no taper at the free surface z=0)
	damp := make([]float64, nx*nz)
	for iz := 0; iz < nz; iz++ {
		for ix := 0; ix < nx; ix++ {
			d := 0.0
			if ix < sw {
				d = math.Max(d, float64(sw-ix))
			}
			if ix >= nx-sw {
				d = math.Max(d, float64(ix-(nx-sw-1)))
			}
			if iz >= nz-sw {
				d = math.Max(d, float64(iz-(nz-sw-1)))
			}
			damp[iz*nx+ix] = math.Exp(-spongeAlpha * d * d)
		}
	}

	traces := make([][]float64, len(c.Recs))
	for r := range traces {
		traces[r] = make([]float64, g.NT)
	}
	for t := 0; t < g.NT; t++ {
		// velocity update: v += −(dt/ρ) ∇p
		for iz := 0; iz < nz; iz++ {
			row := iz * nx
			for ix := 0; ix < nx-1; ix++ {
				vx[row+ix] -= dtRho * (p[row+ix+1] - p[row+ix])
			}
			if iz < nz-1 {
				for ix := 0; ix < nx; ix++ {
					vz[row+ix] -= dtRho * (p[row+nx+ix] - p[row+ix])
				}
			}
		}
		// pressure update: p += −ρc²·dt ∇·v
		for iz := 0; iz < nz; iz++ {
			row := iz * nx
			for ix := 0; ix < nx; ix++ {
				dvx, dvz := vx[row+ix], vz[row+ix]
				if ix > 0 {
					dvx -= vx[row+ix-1]
				}
				if iz > 0 {
					dvz -= vz[row-nx+ix]
				}
				p[row+ix] -= kap[row+ix] * (dvx + dvz)
			}
		}
		if t < len(c.Src.Wavelet) {
			p[c.Src.IZ*nx+c.Src.IX] += c.Src.Wavelet[t]
		}
		// free surface: pressure vanishes at z=0
		for ix := 0; ix < nx; ix++ {
			p[ix] = 0
		}
		for i, d := range damp {
			if d != 1 {
				p[i] *= d
				vx[i] *= d
				vz[i] *= d
			}
		}
		for r, rec := range c.Recs {
			traces[r][t] = p[rec.IZ*nx+rec.IX]
		}
	}
	return traces, nil
}

// peakIndex returns the sample with the largest |amplitude|.
func peakIndex(x []float64) int {
	best, bi := -1.0, 0
	for i, v := range x {
		if a := math.Abs(v); a > best {
			best, bi = a, i
		}
	}
	return bi
}

// fdSection samples the velocity model onto a regular nx×nz grid with
// spacing dx (row-major, z down).
func fdSection(m *seismic.VelocityModel, nx, nz int, dx float64) []float64 {
	vel := make([]float64, nx*nz)
	for iz := 0; iz < nz; iz++ {
		for ix := 0; ix < nx; ix++ {
			vel[iz*nx+ix] = m.VelocityAt(float64(ix)*dx, float64(iz)*dx)
		}
	}
	return vel
}

// fdHomogeneous builds a small water-only model. The source sits at
// 150 m depth so its free-surface ghost (0.2 s later) does not overlap
// the direct arrival at the 500 m receivers.
func fdHomogeneous(nt int) fdConfig {
	const nx, nz, dx, dt = 200, 150, 5.0, 0.0015 // CFL = 0.0015*1500*1.414/5 = 0.636
	vel := make([]float64, nx*nz)
	for i := range vel {
		vel[i] = 1500
	}
	return fdConfig{
		Grid:  fdGrid{NX: nx, NZ: nz, DX: dx, DT: dt, NT: nt},
		Model: fdModel{Vel: vel, Rho: 1000},
		Src:   fdSource{IX: nx / 2, IZ: 30, Wavelet: rickerWavelet(25, 0.05, dt, nt)},
		Recs:  []fdReceiver{{IX: nx / 2, IZ: 100}, {IX: nx/2 + 30, IZ: 100}},
	}
}

func fdRunOrDie(t *testing.T, c fdConfig) [][]float64 {
	t.Helper()
	p, err := c.run()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFDValidateCatchesErrors(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(*fdConfig)
	}{
		{"CFL violation", func(c *fdConfig) { c.Grid.DT = 0.01 }},
		{"short velocity field", func(c *fdConfig) { c.Model.Vel = c.Model.Vel[:10] }},
		{"source outside grid", func(c *fdConfig) { c.Src.IX = -1 }},
		{"receiver outside grid", func(c *fdConfig) { c.Recs = []fdReceiver{{IX: 10000, IZ: 0}} }},
		{"zero density", func(c *fdConfig) { c.Model.Rho = 0 }},
	} {
		cfg := fdHomogeneous(10)
		c.mutate(&cfg)
		if _, err := cfg.run(); err == nil {
			t.Errorf("%s should fail", c.name)
		}
	}
}

func TestFDCFLNumber(t *testing.T) {
	want := 0.0015 * 1500 * math.Sqrt2 / 5
	if got := fdHomogeneous(10).cfl(); math.Abs(got-want) > 1e-12 {
		t.Errorf("CFL %g, want %g", got, want)
	}
}

func TestFDRickerWaveletShape(t *testing.T) {
	w := rickerWavelet(25, 0.05, 0.001, 200)
	if peakIndex(w) != 50 {
		t.Errorf("peak at sample %d, want 50 (t0)", peakIndex(w))
	}
	if w[50] <= 0 {
		t.Error("peak should be positive")
	}
	var sum float64
	for _, v := range w {
		sum += v
	}
	if math.Abs(sum) > 1e-3 {
		t.Errorf("wavelet mean %g, want ≈ 0", sum)
	}
}

// TestFDDirectArrivalTime: the peak of the direct wave at the vertical
// receiver arrives near t0 + distance/c.
func TestFDDirectArrivalTime(t *testing.T) {
	c := fdHomogeneous(400)
	p := fdRunOrDie(t, c)
	dist := float64(100-30) * c.Grid.DX
	want := 0.05 + dist/1500
	got := float64(peakIndex(p[0])) * c.Grid.DT
	// the 2D point-source response lags the wavelet peak by a fraction of
	// a period (10–20 ms at 25 Hz), so allow a one-period window
	if got < want-0.01 || got > want+0.04 {
		t.Errorf("direct arrival at %.4f s, want ≈ %.4f s (+shape delay)", got, want)
	}
}

// TestFDMoveout: the offset receiver records the arrival later, by the
// extra slant distance over c.
func TestFDMoveout(t *testing.T) {
	c := fdHomogeneous(400)
	p := fdRunOrDie(t, c)
	t0 := float64(peakIndex(p[0])) * c.Grid.DT
	t1 := float64(peakIndex(p[1])) * c.Grid.DT
	d0 := float64(70) * c.Grid.DX
	d1 := math.Hypot(float64(30)*c.Grid.DX, d0)
	want := (d1 - d0) / 1500
	if math.Abs((t1-t0)-want) > 0.008 {
		t.Errorf("moveout %.4f s, want ≈ %.4f s", t1-t0, want)
	}
}

// TestFDFreeSurfaceGhostSignFlip: the surface-reflected ghost arrives
// after the direct wave with opposite polarity.
func TestFDFreeSurfaceGhostSignFlip(t *testing.T) {
	c := fdHomogeneous(500)
	p := fdRunOrDie(t, c)[0]
	dirIdx := peakIndex(p)
	dirVal := p[dirIdx]
	// ghost expected at extra path 2·zs/c later; search a small window
	extra := 2 * float64(30) * c.Grid.DX / 1500
	ghostIdx := dirIdx + int(extra/c.Grid.DT)
	w := int(0.01 / c.Grid.DT)
	best, bi := 0.0, ghostIdx
	for i := ghostIdx - w; i <= ghostIdx+w && i < len(p); i++ {
		if a := math.Abs(p[i]); a > best {
			best, bi = a, i
		}
	}
	if p[bi]*dirVal >= 0 {
		t.Errorf("ghost polarity not flipped: direct %g at %d, ghost %g at %d",
			dirVal, dirIdx, p[bi], bi)
	}
}

// TestFDSpongeAbsorbsEnergy: long after the wave exits the interior, the
// recorded field is tiny compared to the direct arrival.
func TestFDSpongeAbsorbsEnergy(t *testing.T) {
	const nt = 1400
	p := fdRunOrDie(t, fdHomogeneous(nt))[0]
	peak := math.Abs(p[peakIndex(p)])
	var late float64
	for _, v := range p[nt-150:] {
		late = max(late, math.Abs(v))
	}
	if late > 0.02*peak {
		t.Errorf("late field %.3g vs peak %.3g: boundaries reflect", late, peak)
	}
}

// TestFDOverthrustSection: the velocity model sampled onto an FD grid
// has water on top and faster rock below, velocity increasing across
// interfaces.
func TestFDOverthrustSection(t *testing.T) {
	m := integrationDataset(t).Model
	const nx, nz, dx = 120, 200, 10.0
	vel := fdSection(m, nx, nz, dx)
	if len(vel) != nx*nz {
		t.Fatal("wrong section size")
	}
	if vel[10*nx+5] != m.WaterVel {
		t.Error("water column velocity wrong")
	}
	iw := int(300/dx) + 2
	if vel[iw*nx+5] < 2000 {
		t.Error("sub-seafloor velocity too low")
	}
	if vel[(nz-1)*nx+5] <= vel[iw*nx+5] {
		t.Error("velocity should increase with depth")
	}
}
