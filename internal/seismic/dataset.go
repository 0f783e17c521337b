package seismic

import (
	"fmt"
	"math"

	"repro/internal/cfloat"
	"repro/internal/dense"
	"repro/internal/fanout"
	"repro/internal/fft"
	"repro/internal/sfc"
)

// Dataset holds the frequency-domain synthetic survey: for each in-band
// frequency, the downgoing kernel matrix K (sources × receivers, the
// paper's 26040×15930 frequency matrices at laptop scale), the upgoing
// data P− (receivers × sources) generated exactly as P− = R·P+ (the MDC
// relation), and the ground-truth local reflectivity R (receivers ×
// receivers) that MDD must recover.
type Dataset struct {
	Geom    Geometry
	Model   *VelocityModel
	Wavelet Wavelet
	// Nt, Dt define the time axis (paper: 4.5 s at 4 ms).
	Nt int
	Dt float64
	// Freqs are the in-band frequencies in Hz; FreqIdx their bin indices
	// on the one-sided FFT grid of (Nt, Dt).
	Freqs   []float64
	FreqIdx []int
	// K[f] is the downgoing frequency matrix: K[s, v] = p+(ω_f; source s,
	// seafloor point v), including the free-surface multiple series.
	K []*dense.Matrix
	// Pminus[f] is the upgoing wavefield: Pminus[r, s] = p−(ω_f; receiver
	// r, source s) = Σ_v R[r,v]·K[s,v]·dA.
	Pminus []*dense.Matrix
	// Rtrue[f] is the ground-truth local reflectivity between seafloor
	// points (symmetric by reciprocity).
	Rtrue []*dense.Matrix
	// DArea is the surface-integration weight dx·dy of the MDC integral.
	DArea float64
}

// Options configures dataset synthesis. The velocity model is always
// defaultModel(Geom.RecDepth); the band starts at fMin and the
// water-layer multiple series stops after nMultiples terms.
type Options struct {
	// Geom is the acquisition geometry (DefaultGeometry if zero).
	Geom Geometry
	// Wavelet is the source spectrum (FlatWavelet{Fmax: 45} if nil).
	Wavelet Wavelet
	// Nt, Dt define the time axis (1126 samples at 4 ms scaled down to
	// 256 at 4 ms by default).
	Nt int
	Dt float64
}

const (
	// fMin drops the near-DC bins below it (Hz).
	fMin = 2.0
	// nMultiples truncates the water-layer multiple series.
	nMultiples = 3
)

// DemoOptions returns the calibrated laptop-scale configuration used by
// the examples and figure benchmarks: 24×14 sources over 20×12 seafloor
// receivers at 20 m spacing (the paper's geometry ratios), a 30 Hz flat
// wavelet, and 512 samples at 4 ms (2 s of data: primaries arrive before
// ≈1.1 s and the water-layer multiple train extends beyond it). At this
// scale the Hilbert-sorted
// frequency matrices are genuinely data-sparse (TLR compresses them
// 1.5–2×; the paper's 7× needs its 26040×15930 extent — tile ranks grow
// sub-linearly with matrix size, so small matrices compress less).
func DemoOptions() Options {
	return Options{
		Geom: Geometry{
			NsX: 24, NsY: 14, NrX: 20, NrY: 12,
			Dx: 20, Dy: 20, SrcDepth: 10, RecDepth: 300,
		},
		Wavelet: FlatWavelet{Fmax: 30},
		Nt:      512,
		Dt:      0.004,
	}
}

// Generate synthesizes the dataset.
func Generate(opts Options) (*Dataset, error) {
	g := opts.Geom
	if g.NumSources() == 0 {
		g = DefaultGeometry()
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	model := defaultModel(g.RecDepth)
	if err := model.validate(); err != nil {
		return nil, err
	}
	wav := opts.Wavelet
	if wav == nil {
		wav = FlatWavelet{Fmax: 45}
	}
	nt := opts.Nt
	if nt == 0 {
		nt = 256
	}
	if nt < 0 {
		return nil, fmt.Errorf("seismic: Nt %d is negative", nt)
	}
	dt := opts.Dt
	if dt == 0 {
		dt = 0.004
	}
	if !(dt > 0) || math.IsInf(dt, 1) {
		return nil, fmt.Errorf("seismic: Dt %g s, want a positive finite sampling interval", dt)
	}
	axis := fft.FreqAxis(nt, dt)
	var freqs []float64
	var idx []int
	for k, f := range axis {
		if f >= fMin && f <= wav.MaxFreq() {
			freqs = append(freqs, f)
			idx = append(idx, k)
		}
	}
	if len(freqs) == 0 {
		return nil, fmt.Errorf("seismic: no frequencies in band [%g, %g] Hz", fMin, wav.MaxFreq())
	}
	ds := &Dataset{
		Geom: g, Model: model, Wavelet: wav,
		Nt: nt, Dt: dt,
		Freqs: freqs, FreqIdx: idx,
		K:      make([]*dense.Matrix, len(freqs)),
		Pminus: make([]*dense.Matrix, len(freqs)),
		Rtrue:  make([]*dense.Matrix, len(freqs)),
		DArea:  g.Dx * g.Dy,
	}
	off := newOffsetTable(g)
	fanout.Do(len(freqs), 0, func(_, fi int) {
		ds.synthesizeFrequency(fi, off)
	})
	return ds, nil
}

// offsetTable lists the distinct source-receiver offsets of a geometry
// along each axis, by exact float64 value, and where each (source,
// receiver) pair finds its own. K's Green's sums depend on a pair only
// through |sx − rx| and |sy − ry|, so each is evaluated once per distinct
// (x, y) offset pair — solve-survey's 384×192 grid has 20 × 14 of them
// against 73,728 pairs.
type offsetTable struct {
	// hx, hy are the distinct |sx − rx| and |sy − ry|, in first-seen order.
	hx, hy []float64
	// x[i*NrX+j] indexes hx for source column i and receiver column j;
	// y[i*NrY+j] indexes hy for source row i and receiver row j.
	x, y []int
}

func newOffsetTable(g Geometry) *offsetTable {
	t := &offsetTable{}
	t.hx, t.x = axisOffsets(g.NsX, g.NrX, func(i int) float64 {
		sx, _, _ := g.sourcePos(i * g.NsY)
		return sx
	}, func(j int) float64 {
		rx, _, _ := g.receiverPos(j * g.NrY)
		return rx
	})
	t.hy, t.y = axisOffsets(g.NsY, g.NrY, func(i int) float64 {
		_, sy, _ := g.sourcePos(i)
		return sy
	}, func(j int) float64 {
		_, ry, _ := g.receiverPos(j)
		return ry
	})
	return t
}

// axisOffsets returns the distinct |src(i) − rec(j)| over ns source and
// nr receiver coordinates along one axis, and for each (i, j) at i*nr+j
// the index of its own. Offsets are keyed by their exact value, not by
// the lattice difference i − j: at a spacing such as 12.3 m one lattice
// difference rounds to several distinct float64 offsets, and K must be
// bit for bit a per-pair evaluation, which uses each pair's own. The
// coordinates are finite (Geometry.Validate), so no key is NaN.
func axisOffsets(ns, nr int, src, rec func(int) float64) (dist []float64, idx []int) {
	seen := make(map[float64]int)
	idx = make([]int, ns*nr)
	for i := 0; i < ns; i++ {
		for j := 0; j < nr; j++ {
			h := math.Abs(src(i) - rec(j))
			k, ok := seen[h]
			if !ok {
				k = len(dist)
				seen[h] = k
				dist = append(dist, h)
			}
			idx[i*nr+j] = k
		}
	}
	return dist, idx
}

// synthesizeFrequency fills K, Rtrue, and Pminus for frequency index fi.
// K's multiple series is summed once per distinct offset pair of off and
// gathered into every (s, v) with that pair; h2 is the expression a
// per-pair evaluation would form (a negated offset squares to the same
// bits, fused or not), so K is bit for bit that evaluation's. P− is one
// cfloat.Axpy per (s, v): gc's complex64 product, float32 accumulation
// over v in order, zero terms skipped.
func (ds *Dataset) synthesizeFrequency(fi int, off *offsetTable) {
	g := ds.Geom
	f := ds.Freqs[fi]
	omega := 2 * math.Pi * f
	w := ds.Wavelet.Spectrum(f)
	ns, nr := g.NumSources(), g.NumReceivers()

	// Downgoing kernel K[s, v] = W(ω)·Σ_k (−r_wb)^k [G_k − G_k^ghost].
	// The water-layer multiple series uses the unfolded-ray image
	// approximation: the k-th multiple travels the slant distance of the
	// direct ray with 2k·zw of extra unfolded vertical path, preserving
	// multiple kinematics (each surface bounce contributes −1, each
	// seafloor bounce r_wb).
	cw := ds.Model.WaterVel
	rwb := ds.Model.WaterBottomRefl
	zw := ds.Model.WaterDepth
	zs := g.SrcDepth
	rz := g.RecDepth
	ny := len(off.hy)
	sums := make([]complex64, len(off.hx)*ny)
	for a, dx := range off.hx {
		for b, dy := range off.hy {
			h2 := dx*dx + dy*dy
			var acc complex128
			bounce := 1.0
			for m := 0; m <= nMultiples; m++ {
				extra := 2 * float64(m) * zw
				dDir := math.Sqrt(h2 + (rz-zs+extra)*(rz-zs+extra))
				dGho := math.Sqrt(h2 + (rz+zs+extra)*(rz+zs+extra))
				acc += complex(bounce, 0) * (greens(omega, dDir, cw) - greens(omega, dGho, cw))
				bounce *= -rwb
			}
			sums[a*ny+b] = complex64(w * acc)
		}
	}
	k := dense.New(ns, nr)
	for v := 0; v < nr; v++ {
		jx, jy := v/g.NrY, v%g.NrY
		col := k.Col(v)
		for s := range col {
			ix, iy := s/g.NsY, s%g.NsY
			col[s] = sums[off.x[ix*g.NrX+jx]*ny+off.y[iy*g.NrY+jy]]
		}
	}
	ds.K[fi] = k

	// Ground-truth reflectivity R[r, v]: specular reflections off each
	// sub-seafloor interface between seafloor points r and v, evaluated at
	// the midpoint for reciprocity symmetry.
	r := dense.New(nr, nr)
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
	ds.Rtrue[fi] = r

	// Upgoing data: P−[r, s] = Σ_v R[r, v]·K[s, v]·dA  ⇒  P− = dA·R·Kᵀ.
	pm := dense.New(nr, ns)
	scale := complex64(complex(float32(ds.DArea), 0))
	for s := 0; s < ns; s++ {
		outCol := pm.Col(s)
		for v := 0; v < nr; v++ {
			cfloat.Axpy(k.At(s, v)*scale, r.Col(v), outCol)
		}
	}
	ds.Pminus[fi] = pm
}

// greens is the 3D Helmholtz free-space Green's function
// exp(−iωd/c)/(4πd).
func greens(omega, dist, vel float64) complex128 {
	if dist < 1 {
		dist = 1 // source-receiver coincidence guard
	}
	phase := -omega * dist / vel
	amp := 1 / (4 * math.Pi * dist)
	return complex(amp*math.Cos(phase), amp*math.Sin(phase))
}

// NumFreqs returns the number of in-band frequency matrices.
func (ds *Dataset) NumFreqs() int { return len(ds.Freqs) }

// Orderings holds the row and column permutations applied to the frequency
// matrices before TLR compression (§4: distance-aware reordering).
type Orderings struct {
	Order sfc.Order
	// SrcPerm reorders the source axis (rows of K).
	SrcPerm []int
	// RecPerm reorders the receiver axis (columns of K, rows+cols of R).
	RecPerm []int
}

// Reorder returns a copy of the dataset with the given space-filling-curve
// ordering applied to every frequency matrix, plus the permutations used.
// Hilbert ordering gathers spatially close sources/receivers into the same
// tiles, concentrating energy near tile diagonals for better compression.
// ds is in acquisition order.
func (ds *Dataset) Reorder(order sfc.Order) (*Dataset, *Orderings) {
	g := ds.Geom
	o := &Orderings{
		Order:   order,
		SrcPerm: sfc.Permutation(sfc.GridPoints(g.NsX, g.NsY), order),
		RecPerm: sfc.Permutation(sfc.GridPoints(g.NrX, g.NrY), order),
	}
	return ds.Permute(o.SrcPerm, o.RecPerm), o
}

// Permute returns a copy of the dataset whose source i is source
// srcPerm[i] of ds and whose receiver j is receiver recPerm[j], in every
// frequency matrix.
func (ds *Dataset) Permute(srcPerm, recPerm []int) *Dataset {
	g := ds.Geom
	out := &Dataset{
		Geom: g, Model: ds.Model, Wavelet: ds.Wavelet,
		Nt: ds.Nt, Dt: ds.Dt,
		Freqs: ds.Freqs, FreqIdx: ds.FreqIdx,
		K:      make([]*dense.Matrix, len(ds.K)),
		Pminus: make([]*dense.Matrix, len(ds.Pminus)),
		Rtrue:  make([]*dense.Matrix, len(ds.Rtrue)),
		DArea:  ds.DArea,
	}
	ns, nr := g.NumSources(), g.NumReceivers()
	for fi := range ds.K {
		kd := sfc.ApplyRows(ds.K[fi].Data, ns, nr, srcPerm)
		kd = sfc.ApplyCols(kd, ns, nr, recPerm)
		out.K[fi] = dense.FromSlice(ns, nr, kd)
		pd := sfc.ApplyRows(ds.Pminus[fi].Data, nr, ns, recPerm)
		pd = sfc.ApplyCols(pd, nr, ns, srcPerm)
		out.Pminus[fi] = dense.FromSlice(nr, ns, pd)
		rd := sfc.ApplyRows(ds.Rtrue[fi].Data, nr, nr, recPerm)
		rd = sfc.ApplyCols(rd, nr, nr, recPerm)
		out.Rtrue[fi] = dense.FromSlice(nr, nr, rd)
	}
	return out
}
