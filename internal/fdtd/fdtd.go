// Package fdtd is the finite-difference wave-equation modelling substrate:
// the paper's dataset is "modeled" pressure and particle-velocity data,
// and its Fig. 11d ground truth comes "from finite-difference modelling"
// (§6.1). This package implements a 2D acoustic staggered-grid
// (velocity–pressure, Virieux-style) time-domain solver with a free
// surface on top, sponge absorbing boundaries elsewhere, point sources,
// pressure + particle-velocity receivers, and the up/down wavefield
// separation (p± = (p ± ρc·vz)/2) that §6.1 performs as pre-processing.
//
// Time stepping is goroutine-parallel over horizontal strips with a
// barrier per field update — the textbook wafer/stencil workload shape.
package fdtd

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/fanout"
)

// Grid describes the discretization.
type Grid struct {
	// NX, NZ are grid extents (x across, z down; z=0 is the free surface).
	NX, NZ int
	// DX is the spatial step in metres (uniform in x and z).
	DX float64
	// DT is the time step in seconds.
	DT float64
	// NT is the number of time steps.
	NT int
}

// Model holds the medium: velocity per cell and constant density.
type Model struct {
	// Vel is the P velocity field, row-major Vel[iz*NX+ix] (m/s).
	Vel []float64
	// Rho is the (constant) density (kg/m³).
	Rho float64
}

// Source is a pressure point source with a time signature.
type Source struct {
	IX, IZ int
	// Wavelet is the source time function, one sample per step (shorter
	// slices are zero-extended).
	Wavelet []float64
}

// Receiver records pressure and vertical particle velocity at a point.
type Receiver struct {
	IX, IZ int
}

// Config assembles a simulation.
type Config struct {
	Grid  Grid
	Model Model
	Src   Source
	Recs  []Receiver
	// SpongeWidth is the absorbing-layer thickness in cells (default 30).
	SpongeWidth int
	// SpongeAlpha is the Cerjan damping strength (default 0.0015).
	SpongeAlpha float64
	// Workers bounds the stencil parallelism (0 = GOMAXPROCS).
	Workers int
}

// Result holds recorded traces.
type Result struct {
	// P[r][t] is pressure at receiver r, step t; VZ likewise.
	P  [][]float64
	VZ [][]float64
	DT float64
}

// RickerWavelet returns a Ricker pulse with peak frequency f0 delayed by
// t0 seconds, sampled at dt over nt steps.
func RickerWavelet(f0, t0, dt float64, nt int) []float64 {
	w := make([]float64, nt)
	for i := range w {
		t := float64(i)*dt - t0
		a := math.Pi * f0 * t
		w[i] = (1 - 2*a*a) * math.Exp(-a*a)
	}
	return w
}

// maxVel returns the maximum medium velocity.
func (m Model) maxVel() float64 {
	var v float64
	for _, x := range m.Vel {
		if x > v {
			v = x
		}
	}
	return v
}

// CFL returns the Courant number dt·vmax·√2/dx; stability requires < 1.
func (c Config) CFL() float64 {
	return c.Grid.DT * c.Model.maxVel() * math.Sqrt2 / c.Grid.DX
}

// Validate checks the configuration.
func (c Config) Validate() error {
	g := c.Grid
	if g.NX < 3 || g.NZ < 3 || g.NT < 1 {
		return fmt.Errorf("fdtd: grid too small (%dx%d, %d steps)", g.NX, g.NZ, g.NT)
	}
	if g.DX <= 0 || g.DT <= 0 {
		return fmt.Errorf("fdtd: nonpositive steps dx=%g dt=%g", g.DX, g.DT)
	}
	if len(c.Model.Vel) != g.NX*g.NZ {
		return fmt.Errorf("fdtd: velocity field has %d cells, want %d", len(c.Model.Vel), g.NX*g.NZ)
	}
	for i, v := range c.Model.Vel {
		if v <= 0 {
			return fmt.Errorf("fdtd: nonpositive velocity at cell %d", i)
		}
	}
	if c.Model.Rho <= 0 {
		return fmt.Errorf("fdtd: nonpositive density")
	}
	if cfl := c.CFL(); cfl >= 1 {
		return fmt.Errorf("fdtd: CFL %.3f >= 1 (reduce dt or increase dx)", cfl)
	}
	if c.Src.IX < 0 || c.Src.IX >= g.NX || c.Src.IZ < 0 || c.Src.IZ >= g.NZ {
		return fmt.Errorf("fdtd: source (%d,%d) outside grid", c.Src.IX, c.Src.IZ)
	}
	for i, r := range c.Recs {
		if r.IX < 0 || r.IX >= g.NX || r.IZ < 0 || r.IZ >= g.NZ {
			return fmt.Errorf("fdtd: receiver %d (%d,%d) outside grid", i, r.IX, r.IZ)
		}
	}
	return nil
}

// Run executes the simulation.
func Run(c Config) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	g := c.Grid
	nx, nz := g.NX, g.NZ
	sw := c.SpongeWidth
	if sw == 0 {
		sw = 30
	}
	if sw > nx/2 {
		sw = nx / 2
	}
	alpha := c.SpongeAlpha
	if alpha == 0 {
		alpha = 0.0015
	}
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	p := make([]float64, nx*nz)
	vx := make([]float64, nx*nz)
	vz := make([]float64, nx*nz)
	// precomputed coefficients
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
			damp[iz*nx+ix] = math.Exp(-alpha * d * d)
		}
	}

	res := &Result{
		P:  make([][]float64, len(c.Recs)),
		VZ: make([][]float64, len(c.Recs)),
		DT: g.DT,
	}
	for r := range c.Recs {
		res.P[r] = make([]float64, g.NT)
		res.VZ[r] = make([]float64, g.NT)
	}

	// strip-parallel field updates with a barrier between v and p phases:
	// one strip of rows per worker, each row updated independently
	parallelRows := func(n int, f func(iz0, iz1 int)) {
		if workers == 1 || n < 64 {
			f(0, n)
			return
		}
		chunk := (n + workers - 1) / workers
		fanout.Do((n+chunk-1)/chunk, workers, func(_, s int) {
			f(s*chunk, min((s+1)*chunk, n))
		})
	}

	for t := 0; t < g.NT; t++ {
		// velocity update: v += −(dt/ρ) ∇p
		parallelRows(nz, func(iz0, iz1 int) {
			for iz := iz0; iz < iz1; iz++ {
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
		})
		// pressure update: p += −ρc²·dt ∇·v, then source, free surface,
		// sponge
		parallelRows(nz, func(iz0, iz1 int) {
			for iz := iz0; iz < iz1; iz++ {
				row := iz * nx
				for ix := 0; ix < nx; ix++ {
					var dvx, dvz float64
					if ix > 0 {
						dvx = vx[row+ix] - vx[row+ix-1]
					} else {
						dvx = vx[row+ix]
					}
					if iz > 0 {
						dvz = vz[row+ix] - vz[row-nx+ix]
					} else {
						dvz = vz[row+ix]
					}
					p[row+ix] -= kap[row+ix] * (dvx + dvz)
				}
			}
		})
		if t < len(c.Src.Wavelet) {
			p[c.Src.IZ*nx+c.Src.IX] += c.Src.Wavelet[t]
		}
		// free surface: pressure vanishes at z=0
		for ix := 0; ix < nx; ix++ {
			p[ix] = 0
		}
		// sponge damping on all fields
		parallelRows(nz, func(iz0, iz1 int) {
			for iz := iz0; iz < iz1; iz++ {
				row := iz * nx
				for ix := 0; ix < nx; ix++ {
					d := damp[row+ix]
					if d != 1 {
						p[row+ix] *= d
						vx[row+ix] *= d
						vz[row+ix] *= d
					}
				}
			}
		})
		// record
		for r, rec := range c.Recs {
			res.P[r][t] = p[rec.IZ*nx+rec.IX]
			res.VZ[r][t] = vz[rec.IZ*nx+rec.IX]
		}
	}
	return res, nil
}

// Separate performs the up/down wavefield separation of §6.1 on one
// receiver's traces using the acoustic 1D decomposition
// p± = (p ± ρc·vz)/2, where c is the velocity at the receiver. Downgoing
// energy (from above: the direct wave and surface multiples) lands in p⁺,
// upgoing (reflections from below) in p⁻.
func Separate(p, vz []float64, rho, c float64) (pPlus, pMinus []float64) {
	if len(p) != len(vz) {
		panic("fdtd: Separate length mismatch")
	}
	pPlus = make([]float64, len(p))
	pMinus = make([]float64, len(p))
	z := rho * c
	for i := range p {
		pPlus[i] = (p[i] + z*vz[i]) / 2
		pMinus[i] = (p[i] - z*vz[i]) / 2
	}
	return pPlus, pMinus
}

// Energy returns the total squared amplitude of a trace.
func Energy(x []float64) float64 {
	var e float64
	for _, v := range x {
		e += v * v
	}
	return e
}

// PeakIndex returns the sample with the largest |amplitude|.
func PeakIndex(x []float64) int {
	best, bi := -1.0, 0
	for i, v := range x {
		if a := math.Abs(v); a > best {
			best, bi = a, i
		}
	}
	return bi
}
