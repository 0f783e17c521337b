package seismic

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cfloat"
	"repro/internal/dense"
	"repro/internal/fft"
	"repro/internal/sfc"
)

// spectrum projects a real time series onto the dataset's in-band bins —
// the F of Eqn. 2.
func (ds *Dataset) spectrum(trace []float64) []complex64 {
	if len(trace) != ds.Nt {
		panic("seismic: spectrum trace length mismatch")
	}
	full := make([]complex128, ds.Nt)
	for i, v := range trace {
		full[i] = complex(v, 0)
	}
	fft.NewPlan(ds.Nt).Forward(full)
	out := make([]complex64, len(ds.FreqIdx))
	for i, bin := range ds.FreqIdx {
		out[i] = complex64(full[bin])
	}
	return out
}

func smallOptions() Options {
	return Options{
		Geom: Geometry{
			NsX: 6, NsY: 4, NrX: 5, NrY: 3,
			Dx: 20, Dy: 20, SrcDepth: 10, RecDepth: 300,
		},
		Nt: 128,
		Dt: 0.004,
	}
}

func generateSmall(t *testing.T) *Dataset {
	t.Helper()
	ds, err := Generate(smallOptions())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return ds
}

func TestGeometryIndices(t *testing.T) {
	g := DefaultGeometry()
	if g.NumSources() != 96 || g.NumReceivers() != 60 {
		t.Fatalf("counts %d/%d", g.NumSources(), g.NumReceivers())
	}
	// round trip index ↔ grid
	for ix := 0; ix < g.NrX; ix++ {
		for iy := 0; iy < g.NrY; iy++ {
			r := g.ReceiverIndex(ix, iy)
			x, y, z := g.receiverPos(r)
			if z != g.RecDepth {
				t.Fatal("receiver depth wrong")
			}
			wantX := float64(g.NsX-g.NrX)/2*g.Dx + float64(ix)*g.Dx
			wantY := float64(g.NsY-g.NrY)/2*g.Dy + float64(iy)*g.Dy
			if math.Abs(x-wantX) > 1e-9 || math.Abs(y-wantY) > 1e-9 {
				t.Fatalf("receiver pos (%g,%g) want (%g,%g)", x, y, wantX, wantY)
			}
		}
	}
	if _, _, z := g.sourcePos(0); z != g.SrcDepth {
		t.Fatal("source depth wrong")
	}
}

func TestGeometryValidate(t *testing.T) {
	bad := Geometry{NsX: 0}
	if bad.validate() == nil {
		t.Error("empty geometry should fail")
	}
	bad = DefaultGeometry()
	bad.RecDepth = 5 // above sources
	if bad.validate() == nil {
		t.Error("receivers above sources should fail")
	}
	if DefaultGeometry().validate() != nil {
		t.Error("default geometry should validate")
	}
}

func TestWaveletSpectra(t *testing.T) {
	w := FlatWavelet{Fmax: 45}
	if w.Spectrum(10) != 1 {
		t.Error("flat band should be 1")
	}
	if w.Spectrum(50) != 0 || w.Spectrum(-1) != 0 {
		t.Error("out of band should be 0")
	}
	// taper region decreasing
	if real(w.Spectrum(40)) >= 1 || real(w.Spectrum(44)) >= real(w.Spectrum(40)) {
		t.Error("taper not decreasing")
	}
	r := RickerWavelet{F0: 15}
	if real(r.Spectrum(15)) <= real(r.Spectrum(45)) {
		t.Error("Ricker peak should dominate tail")
	}
	if r.MaxFreq() != 45 {
		t.Error("Ricker MaxFreq")
	}
}

func TestModelValidate(t *testing.T) {
	m := defaultModel(300)
	if err := m.validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
	m.WaterBottomRefl = 1.5
	if m.validate() == nil {
		t.Error("r_wb >= 1 should fail")
	}
	m2 := defaultModel(300)
	m2.Interfaces[0].Depth = 100 // above seafloor
	if m2.validate() == nil {
		t.Error("interface above seafloor should fail")
	}
}

func TestVelocityAtStructure(t *testing.T) {
	m := defaultModel(300)
	if m.VelocityAt(0, 100) != m.WaterVel {
		t.Error("water column velocity wrong")
	}
	vShallow := m.VelocityAt(0, 400)
	vDeep := m.VelocityAt(0, 2000)
	if vDeep <= vShallow {
		t.Error("velocity should increase with depth")
	}
	// fault throw changes interface depth
	ifc := m.Interfaces[0]
	if ifc.depthAt(ifc.FaultX+50) >= ifc.depthAt(ifc.FaultX-50) {
		t.Error("thrust should raise the interface beyond the fault")
	}
}

func TestGenerateShapesAndBand(t *testing.T) {
	ds := generateSmall(t)
	ns, nr := 24, 15
	if ds.NumFreqs() == 0 {
		t.Fatal("no frequencies")
	}
	for fi := range ds.Freqs {
		if ds.K[fi].Rows != ns || ds.K[fi].Cols != nr {
			t.Fatalf("K shape %dx%d", ds.K[fi].Rows, ds.K[fi].Cols)
		}
		if ds.Pminus[fi].Rows != nr || ds.Pminus[fi].Cols != ns {
			t.Fatalf("Pminus shape wrong")
		}
		if ds.Rtrue[fi].Rows != nr || ds.Rtrue[fi].Cols != nr {
			t.Fatalf("Rtrue shape wrong")
		}
		if ds.Freqs[fi] < 2 || ds.Freqs[fi] > 45 {
			t.Fatalf("frequency %g outside band", ds.Freqs[fi])
		}
	}
}

func TestReflectivitySymmetric(t *testing.T) {
	// source-receiver reciprocity of the true local reflectivity
	ds := generateSmall(t)
	r := ds.Rtrue[len(ds.Rtrue)/2]
	for i := 0; i < r.Rows; i++ {
		for j := 0; j < r.Cols; j++ {
			if r.At(i, j) != r.At(j, i) {
				t.Fatalf("R not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestMDCRelationHoldsExactly(t *testing.T) {
	// P− must equal dA·R·Kᵀ by construction: verify against an
	// independent dense computation.
	ds := generateSmall(t)
	fi := ds.NumFreqs() / 2
	k := ds.K[fi]
	r := ds.Rtrue[fi]
	ns, nr := k.Rows, k.Cols
	want := dense.New(nr, ns)
	for s := 0; s < ns; s++ {
		for rr := 0; rr < nr; rr++ {
			var acc complex128
			for v := 0; v < nr; v++ {
				acc += complex128(r.At(rr, v)) * complex128(k.At(s, v))
			}
			want.Set(rr, s, complex64(acc*complex(ds.DArea, 0)))
		}
	}
	if err := dense.RelError(ds.Pminus[fi], want); err > 1e-4 {
		t.Errorf("MDC relation violated: %g", err)
	}
}

func TestDowngoingContainsMultiples(t *testing.T) {
	// K differs from its direct + ghost terms alone: the water-layer
	// multiple series is active
	ds := generateSmall(t)
	fi := ds.NumFreqs() / 2
	direct, _, _ := oracleSynthesize(ds, fi, 0)
	if dense.RelError(ds.K[fi], direct) < 1e-6 {
		t.Error("multiple series has no effect on K")
	}
}

func TestKernelDecaysWithOffset(t *testing.T) {
	// geometric spreading: |K| for the farthest source-receiver pair must
	// be smaller than for the nearest at the same frequency
	ds := generateSmall(t)
	k := ds.K[0]
	g := ds.Geom
	// receiver 0; nearest vs farthest source
	r := 0
	near := ds.nearestSource(r)
	rx, ry, _ := g.receiverPos(r)
	far, fard := 0, -1.0
	for s := 0; s < g.NumSources(); s++ {
		sx, sy, _ := g.sourcePos(s)
		d := (sx-rx)*(sx-rx) + (sy-ry)*(sy-ry)
		if d > fard {
			fard, far = d, s
		}
	}
	an := cfloat.Nrm2([]complex64{k.At(near, r)})
	af := cfloat.Nrm2([]complex64{k.At(far, r)})
	if af >= an {
		t.Errorf("no spreading decay: near %g far %g", an, af)
	}
}

func TestTimeSeriesSpectrumRoundTrip(t *testing.T) {
	// Spectrum ∘ TimeSeries is identity on in-band coefficients
	ds := generateSmall(t)
	nfreq := len(ds.FreqIdx)
	spec := make([]complex64, nfreq)
	for i := range spec {
		spec[i] = complex(float32(i+1), float32(nfreq-i))
	}
	tr := ds.TimeSeries(spec)
	if len(tr) != ds.Nt {
		t.Fatalf("trace length %d", len(tr))
	}
	back := ds.spectrum(tr)
	for i := range spec {
		d := back[i] - spec[i]
		if math.Hypot(float64(real(d)), float64(imag(d))) > 1e-3*float64(nfreq) {
			t.Fatalf("round trip failed at %d: %v vs %v", i, back[i], spec[i])
		}
	}
}

func TestDirectArrivalTime(t *testing.T) {
	// In the kernel Generate builds (direct wave, ghost and three
	// water-layer multiples), the strongest arrival for a co-located
	// source/receiver pair is the direct water path, near t = (zw − zs)/c.
	ds := generateSmall(t)
	r := ds.Geom.ReceiverIndex(2, 1)
	s := ds.nearestSource(r)
	spec := make([]complex64, len(ds.FreqIdx))
	for f := range ds.FreqIdx {
		spec[f] = ds.K[f].At(s, r)
	}
	tr := ds.TimeSeries(spec)
	// find the peak |amplitude|
	best, bi := 0.0, 0
	for i, v := range tr {
		if a := math.Abs(v); a > best {
			best, bi = a, i
		}
	}
	tPeak := float64(bi) * ds.Dt
	tWant := (ds.Geom.RecDepth - ds.Geom.SrcDepth) / ds.Model.WaterVel
	if math.Abs(tPeak-tWant) > 0.05 {
		t.Errorf("direct arrival at %g s, want ≈ %g s", tPeak, tWant)
	}
}

func TestReorderPreservesMDCRelation(t *testing.T) {
	// after Hilbert reordering, P− = dA·R·Kᵀ must still hold (the
	// permutations are applied consistently)
	ds := generateSmall(t)
	rds, ord := ds.Reorder(sfc.Hilbert)
	if ord.Order != sfc.Hilbert {
		t.Fatal("ordering metadata wrong")
	}
	fi := rds.NumFreqs() / 2
	k := rds.K[fi]
	r := rds.Rtrue[fi]
	ns, nr := k.Rows, k.Cols
	want := dense.New(nr, ns)
	for s := 0; s < ns; s++ {
		for rr := 0; rr < nr; rr++ {
			var acc complex128
			for v := 0; v < nr; v++ {
				acc += complex128(r.At(rr, v)) * complex128(k.At(s, v))
			}
			want.Set(rr, s, complex64(acc*complex(ds.DArea, 0)))
		}
	}
	if err := dense.RelError(rds.Pminus[fi], want); err > 1e-4 {
		t.Errorf("reordered MDC relation violated: %g", err)
	}
}

func TestReorderIsPermutationOfOriginal(t *testing.T) {
	ds := generateSmall(t)
	rds, ord := ds.Reorder(sfc.Hilbert)
	fi := 0
	inv := sfc.Inverse(ord.SrcPerm)
	// row inv[s] of reordered K is row s of original at permuted columns
	for s := 0; s < 4; s++ {
		for v := 0; v < 4; v++ {
			if rds.K[fi].At(inv[s], v) != ds.K[fi].At(s, ord.RecPerm[v]) {
				t.Fatalf("reorder mismatch at (%d,%d)", s, v)
			}
		}
	}
}

func TestNMSE(t *testing.T) {
	a := []complex64{1, 2}
	if NMSE(a, a) != 0 {
		t.Error("NMSE(a,a) != 0")
	}
	b := []complex64{0, 0}
	if NMSE(a, b) != 5 {
		t.Errorf("NMSE against zero = %g, want Σ|a|² = 5", NMSE(a, b))
	}
	if NMSEReal([]float64{1, 1}, []float64{1, 1}) != 0 {
		t.Error("NMSEReal identity")
	}
}

func TestGatherHelpers(t *testing.T) {
	g := &Gather{Traces: [][]float64{{0, 3, 0, 1}, {0, 0, 2, 0}}, Dt: 0.5}
	if g.NumTraces() != 2 {
		t.Error("NumTraces")
	}
	if g.MaxAbs() != 3 {
		t.Error("MaxAbs")
	}
	if math.Abs(g.Energy()-(9+1+4)) > 1e-12 {
		t.Error("Energy")
	}
	// window [0.5, 1.5) covers samples 1 and 2
	if math.Abs(g.WindowEnergy(0.5, 1.5)-(9+4)) > 1e-12 {
		t.Errorf("WindowEnergy = %g", g.WindowEnergy(0.5, 1.5))
	}
	if len(g.Flatten()) != 8 {
		t.Error("Flatten length")
	}
}

func TestZeroOffsetSection(t *testing.T) {
	ds := generateSmall(t)
	sec := ds.ZeroOffsetSection(1, func(f, r, s int) complex64 {
		return ds.Pminus[f].At(r, s)
	})
	if sec.NumTraces() != ds.Geom.NrX {
		t.Fatalf("section has %d traces", sec.NumTraces())
	}
	if sec.Energy() == 0 {
		t.Error("zero-offset section is empty")
	}
}

func TestGenerateValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		edit func(*Options)
		want string // a substring of the error
	}{
		{"negative spacing", func(o *Options) { o.Geom.Dx = -1 }, "spacing"},
		{"nonpositive water depth", func(o *Options) { o.Geom.SrcDepth, o.Geom.RecDepth = -20, -10 }, "water depth"},
		{"empty band", func(o *Options) { o.Wavelet = FlatWavelet{Fmax: 1} }, "no frequencies"},
		{"NaN Dx", func(o *Options) { o.Geom.Dx = nan }, "Dx"},
		{"+Inf Dx", func(o *Options) { o.Geom.Dx = inf }, "Dx"},
		{"NaN Dy", func(o *Options) { o.Geom.Dy = nan }, "Dy"},
		{"+Inf Dy", func(o *Options) { o.Geom.Dy = inf }, "Dy"},
		{"NaN SrcDepth", func(o *Options) { o.Geom.SrcDepth = nan }, "SrcDepth"},
		{"-Inf SrcDepth", func(o *Options) { o.Geom.SrcDepth = -inf }, "SrcDepth"},
		{"NaN RecDepth", func(o *Options) { o.Geom.RecDepth = nan }, "RecDepth"},
		{"+Inf RecDepth", func(o *Options) { o.Geom.RecDepth = inf }, "RecDepth"},
		{"negative Nt", func(o *Options) { o.Nt = -8 }, "Nt"},
		{"NaN Dt", func(o *Options) { o.Dt = nan }, "Dt"},
		{"negative Dt", func(o *Options) { o.Dt = -0.004 }, "Dt"},
		{"+Inf Dt", func(o *Options) { o.Dt = inf }, "Dt"},
	} {
		o := smallOptions()
		tc.edit(&o)
		ds, err := Generate(o)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Generate returned (%v, %v), want an error naming %q", tc.name, ds != nil, err, tc.want)
		}
	}
}

// oracleSynthesize is survey synthesis evaluated pair by pair: K's
// multiple series summed afresh for every (s, v), and P− accumulated by
// the complex64 product loop written out. TestGenerateMatchesReference
// holds Generate's offset-tabulated K and its cfloat.Axpy P− to it bit
// for bit.
func oracleSynthesize(ds *Dataset, fi, nmul int) (k, r, pm *dense.Matrix) {
	g := ds.Geom
	f := ds.Freqs[fi]
	omega := 2 * math.Pi * f
	w := ds.Wavelet.Spectrum(f)
	ns, nr := g.NumSources(), g.NumReceivers()

	k = dense.New(ns, nr)
	cw := ds.Model.WaterVel
	rwb := ds.Model.WaterBottomRefl
	zw := ds.Model.WaterDepth
	zs := g.SrcDepth
	for v := 0; v < nr; v++ {
		rx, ry, rz := g.receiverPos(v)
		for s := 0; s < ns; s++ {
			sx, sy, _ := g.sourcePos(s)
			h2 := (sx-rx)*(sx-rx) + (sy-ry)*(sy-ry)
			var acc complex128
			bounce := 1.0
			for m := 0; m <= nmul; m++ {
				extra := 2 * float64(m) * zw
				dDir := math.Sqrt(h2 + (rz-zs+extra)*(rz-zs+extra))
				dGho := math.Sqrt(h2 + (rz+zs+extra)*(rz+zs+extra))
				acc += complex(bounce, 0) * (greens(omega, dDir, cw) - greens(omega, dGho, cw))
				bounce *= -rwb
			}
			k.Set(s, v, complex64(w*acc))
		}
	}

	r = dense.New(nr, nr)
	cs := ds.Model.SubVel
	for v := 0; v < nr; v++ {
		vx, vy, _ := g.receiverPos(v)
		for rr := v; rr < nr; rr++ {
			px, py, _ := g.receiverPos(rr)
			h2 := (px-vx)*(px-vx) + (py-vy)*(py-vy)
			midX := (px + vx) / 2
			var acc complex128
			for _, ifc := range ds.Model.Interfaces {
				dz := 2 * (ifc.depthAt(midX) - zw)
				dist := math.Sqrt(h2 + dz*dz)
				acc += complex(ifc.Refl, 0) * greens(omega, dist, cs)
			}
			val := complex64(acc)
			r.Set(rr, v, val)
			r.Set(v, rr, val)
		}
	}

	pm = dense.New(nr, ns)
	scale := complex64(complex(float32(ds.DArea), 0))
	for s := 0; s < ns; s++ {
		outCol := pm.Col(s)
		for v := 0; v < nr; v++ {
			ksv := k.At(s, v) * scale
			if ksv == 0 {
				continue
			}
			rcol := r.Col(v)
			for rr := range outCol {
				outCol[rr] += rcol[rr] * ksv
			}
		}
	}
	return k, r, pm
}

// sameMatrixBits returns the first (row, col) where a and b differ in
// their float32 bits (NaN ≡ NaN), or ok.
func sameMatrixBits(a, b *dense.Matrix) (i, j int, ok bool) {
	eq := func(u, v float32) bool {
		if u != u || v != v {
			return u != u && v != v
		}
		return math.Float32bits(u) == math.Float32bits(v)
	}
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			x, y := a.At(i, j), b.At(i, j)
			if !eq(real(x), real(y)) || !eq(imag(x), imag(y)) {
				return i, j, false
			}
		}
	}
	return 0, 0, true
}

// TestGenerateMatchesReference holds Generate — K from one Green's sum
// per distinct offset pair, P− through cfloat.Axpy — to the pair-by-pair
// evaluation bit for bit (float32 bits, signed zeros included), every
// frequency, at GOMAXPROCS 1, 2 and 4: on the serve-mix hot geometry
// (16×12 sources over 12×8 receivers, 20 m), on half-cell receiver
// offsets (NsX − NrX and NsY − NrY odd), on a 12.3 × 7.7 m grid, and
// with a Ricker wavelet. It also holds the offset table
// to every pair's own |sx − rx| and |sy − ry| to the float64 bit: on the
// 12.3 × 7.7 m grid 5 of the 6 lattice-offset classes along x hold more
// than one distinct |sx − rx|, and 4 of 5 along y, so keying the table
// by ix − jx instead of the exact offset fails here. (The matrices alone
// would not show that mutation: a one-ulp float64 offset change almost
// never moves a complex64 bit of K.)
func TestGenerateMatchesReference(t *testing.T) {
	geom := func(nsx, nsy, nrx, nry int, dx, dy float64) Geometry {
		return Geometry{NsX: nsx, NsY: nsy, NrX: nrx, NrY: nry, Dx: dx, Dy: dy, SrcDepth: 10, RecDepth: 300}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"serve-mix hot", Options{Geom: geom(16, 12, 12, 8, 20, 20), Nt: 32, Dt: 0.004}},
		{"half-cell offsets", Options{Geom: geom(9, 6, 4, 3, 20, 20), Nt: 64, Dt: 0.004}},
		{"12.3 x 7.7 m", Options{Geom: geom(9, 7, 4, 4, 12.3, 7.7), Nt: 64, Dt: 0.004}},
		{"Ricker", Options{Geom: geom(7, 5, 4, 2, 20, 20), Nt: 64, Dt: 0.004, Wavelet: RickerWavelet{F0: 12}}},
	} {
		g := tc.opts.Geom
		off := newOffsetTable(g)
		for s := 0; s < g.NumSources(); s++ {
			sx, sy, _ := g.sourcePos(s)
			ix, iy := s/g.NsY, s%g.NsY
			for v := 0; v < g.NumReceivers(); v++ {
				rx, ry, _ := g.receiverPos(v)
				jx, jy := v/g.NrY, v%g.NrY
				hx, hy := off.hx[off.x[ix*g.NrX+jx]], off.hy[off.y[iy*g.NrY+jy]]
				if hx != math.Abs(sx-rx) || hy != math.Abs(sy-ry) {
					t.Fatalf("%s: source %d, receiver %d: tabulated offset (%v, %v), the pair's own is (%v, %v)",
						tc.name, s, v, hx, hy, math.Abs(sx-rx), math.Abs(sy-ry))
				}
			}
		}
		var want [3][]*dense.Matrix
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			ds, err := Generate(tc.opts)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if want[0] == nil {
				for fi := range ds.Freqs {
					k, r, pm := oracleSynthesize(ds, fi, nMultiples)
					want[0] = append(want[0], k)
					want[1] = append(want[1], r)
					want[2] = append(want[2], pm)
				}
			}
			for fi := range ds.Freqs {
				for m, got := range [3]*dense.Matrix{ds.K[fi], ds.Rtrue[fi], ds.Pminus[fi]} {
					if i, j, ok := sameMatrixBits(got, want[m][fi]); !ok {
						t.Fatalf("%s, GOMAXPROCS %d, f=%g Hz: %s[%d,%d] = %v, the pair-by-pair evaluation gives %v",
							tc.name, procs, ds.Freqs[fi], [3]string{"K", "Rtrue", "P−"}[m], i, j, got.At(i, j), want[m][fi].At(i, j))
					}
				}
			}
		}
	}
}

func BenchmarkGenerateSmall(b *testing.B) {
	o := smallOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Generate(o)
	}
}
