package fdtd

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/seismic"
)

// homogeneousConfig builds a small water-only model. The source sits at
// 150 m depth so its free-surface ghost (0.2 s later) does not overlap
// the direct arrival at the 500 m receivers.
func homogeneousConfig(nt int) Config {
	return configWithDT(nt, 0.0015) // CFL = 0.0015*1500*1.414/5 = 0.636
}

func configWithDT(nt int, dt float64) Config {
	nx, nz := 200, 150
	vel := make([]float64, nx*nz)
	for i := range vel {
		vel[i] = 1500
	}
	dx := 5.0
	return Config{
		Grid:  Grid{NX: nx, NZ: nz, DX: dx, DT: dt, NT: nt},
		Model: Model{Vel: vel, Rho: 1000},
		Src:   Source{IX: nx / 2, IZ: 30, Wavelet: RickerWavelet(25, 0.05, dt, nt)},
		Recs:  []Receiver{{IX: nx / 2, IZ: 100}, {IX: nx/2 + 30, IZ: 100}},
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	c := homogeneousConfig(10)
	c.Grid.DT = 0.01 // CFL blowup
	if _, err := Run(c); err == nil {
		t.Error("CFL violation should fail")
	}
	c = homogeneousConfig(10)
	c.Model.Vel = c.Model.Vel[:10]
	if _, err := Run(c); err == nil {
		t.Error("short velocity field should fail")
	}
	c = homogeneousConfig(10)
	c.Src.IX = -1
	if _, err := Run(c); err == nil {
		t.Error("source outside grid should fail")
	}
	c = homogeneousConfig(10)
	c.Recs = []Receiver{{IX: 10000, IZ: 0}}
	if _, err := Run(c); err == nil {
		t.Error("receiver outside grid should fail")
	}
	c = homogeneousConfig(10)
	c.Model.Rho = 0
	if _, err := Run(c); err == nil {
		t.Error("zero density should fail")
	}
}

func TestDirectArrivalTime(t *testing.T) {
	// peak of the direct wave at the vertical receiver must arrive near
	// t0 + distance/c
	nt := 400
	c := homogeneousConfig(nt)
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	dist := float64(100-30) * c.Grid.DX
	want := 0.05 + dist/1500
	got := float64(PeakIndex(res.P[0])) * c.Grid.DT
	// the 2D point-source response lags the wavelet peak by a fraction of
	// a period (10–20 ms at 25 Hz), so allow a one-period window
	if got < want-0.01 || got > want+0.04 {
		t.Errorf("direct arrival at %.4f s, want ≈ %.4f s (+shape delay)", got, want)
	}
}

func TestMoveout(t *testing.T) {
	// the offset receiver must record the arrival later, by the extra
	// slant distance over c
	nt := 400
	c := homogeneousConfig(nt)
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	t0 := float64(PeakIndex(res.P[0])) * c.Grid.DT
	t1 := float64(PeakIndex(res.P[1])) * c.Grid.DT
	d0 := float64(70) * c.Grid.DX
	d1 := math.Hypot(float64(30)*c.Grid.DX, d0)
	want := (d1 - d0) / 1500
	if math.Abs((t1-t0)-want) > 0.008 {
		t.Errorf("moveout %.4f s, want ≈ %.4f s", t1-t0, want)
	}
}

func TestFreeSurfaceGhostSignFlip(t *testing.T) {
	// the surface-reflected ghost must arrive after the direct wave with
	// opposite polarity
	nt := 500
	c := homogeneousConfig(nt)
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	p := res.P[0]
	dirIdx := PeakIndex(p)
	dirVal := p[dirIdx]
	// ghost expected at extra path 2·zs/c later
	extra := 2 * float64(30) * c.Grid.DX / 1500
	ghostIdx := dirIdx + int(extra/c.Grid.DT)
	// search a small window around the predicted ghost time
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

func TestSpongeAbsorbsEnergy(t *testing.T) {
	// long after the wave exits the interior, the recorded field must be
	// tiny compared to the direct arrival
	nt := 1400
	c := homogeneousConfig(nt)
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	p := res.P[0]
	peak := math.Abs(p[PeakIndex(p)])
	var late float64
	for _, v := range p[nt-150:] {
		if a := math.Abs(v); a > late {
			late = a
		}
	}
	if late > 0.02*peak {
		t.Errorf("late field %.3g vs peak %.3g: boundaries reflect", late, peak)
	}
}

func TestSeparationDowngoingDirect(t *testing.T) {
	// within the direct-arrival window, energy must be overwhelmingly in
	// the downgoing component p⁺ (the source is above the receiver)
	nt := 400
	c := homogeneousConfig(nt)
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	pPlus, pMinus := Separate(res.P[0], res.VZ[0], c.Model.Rho, 1500)
	idx := PeakIndex(res.P[0])
	w := int(0.02 / c.Grid.DT)
	lo, hi := max(0, idx-w), min(nt, idx+w)
	eUp := Energy(pMinus[lo:hi])
	eDown := Energy(pPlus[lo:hi])
	if eDown < 10*eUp {
		t.Errorf("direct window not downgoing-dominated: p+ %.3g vs p- %.3g", eDown, eUp)
	}
}

func TestSeparationUpgoingReflection(t *testing.T) {
	// add a fast layer below the receivers: its reflection must arrive in
	// the upgoing component (dt reduced to keep CFL < 1 at 3000 m/s)
	nt := 900
	c := configWithDT(nt, 0.0011)
	nx := c.Grid.NX
	reflZ := 115
	for iz := reflZ; iz < c.Grid.NZ; iz++ {
		for ix := 0; ix < nx; ix++ {
			c.Model.Vel[iz*nx+ix] = 3000
		}
	}
	// shallow source (30 m) so the direct+ghost pair is long gone when
	// the reflection arrives; receiver at 400 m above the 575 m reflector
	c.Src.IZ = 6
	c.Recs = []Receiver{{IX: nx / 2, IZ: 80}}
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	pPlus, pMinus := Separate(res.P[0], res.VZ[0], c.Model.Rho, 1500)
	// reflection arrival: source (30 m) → reflector (575 m) → receiver
	// (400 m): path (545+175) m / 1500 + t0, plus the source-shape delay
	tRefl := 0.05 + float64((115-6)+(115-80))*c.Grid.DX/1500
	lo := int((tRefl - 0.01) / c.Grid.DT)
	hi := min(nt, int((tRefl+0.05)/c.Grid.DT))
	eUp := Energy(pMinus[lo:hi])
	eDown := Energy(pPlus[lo:hi])
	if eUp < 2*eDown {
		t.Errorf("reflection window not upgoing-dominated: p- %.3g vs p+ %.3g", eUp, eDown)
	}
}

// TestParallelMatchesSerial: the strip-parallel run at GOMAXPROCS 8 is
// bit for bit the serial one at GOMAXPROCS 1.
func TestParallelMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	nt := 150
	runtime.GOMAXPROCS(1)
	r1, err := Run(homogeneousConfig(nt))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(8)
	r8, err := Run(homogeneousConfig(nt))
	if err != nil {
		t.Fatal(err)
	}
	for r := range r1.P {
		for i := range r1.P[r] {
			if r1.P[r][i] != r8.P[r][i] {
				t.Fatalf("parallel run diverged at receiver %d sample %d", r, i)
			}
		}
	}
}

func TestOverthrustSectionModel(t *testing.T) {
	// the seismic VelocityModel bridges into an FD section: water on top,
	// faster rock below, velocity increasing across interfaces
	m := seismic.DefaultModel(300)
	nx, nz := 120, 200
	dx := 10.0
	vel := m.FDSection(nx, nz, dx)
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
	// deep cell should be faster than shallow rock
	if vel[(nz-1)*nx+5] <= vel[iw*nx+5] {
		t.Error("velocity should increase with depth")
	}
}

func TestRickerWaveletShape(t *testing.T) {
	w := RickerWavelet(25, 0.05, 0.001, 200)
	// peak at t0
	if PeakIndex(w) != 50 {
		t.Errorf("peak at sample %d, want 50", PeakIndex(w))
	}
	if w[50] <= 0 {
		t.Error("peak should be positive")
	}
	// zero mean (approximately)
	var sum float64
	for _, v := range w {
		sum += v
	}
	if math.Abs(sum) > 1e-3 {
		t.Errorf("wavelet mean %g", sum)
	}
}

func TestCFLNumber(t *testing.T) {
	c := homogeneousConfig(10)
	want := 0.0015 * 1500 * math.Sqrt2 / 5
	if math.Abs(c.CFL()-want) > 1e-12 {
		t.Errorf("CFL %g, want %g", c.CFL(), want)
	}
}

func BenchmarkStep200x150(b *testing.B) {
	c := homogeneousConfig(b.N)
	if b.N < 1 {
		return
	}
	b.SetBytes(int64(c.Grid.NX * c.Grid.NZ * 8 * 3))
	if _, err := Run(c); err != nil {
		b.Fatal(err)
	}
}
