package seismic

import (
	"math"

	"repro/internal/fft"
)

// TimeSeries converts a per-frequency complex spectrum (values at the
// dataset's in-band bins, zero elsewhere) into a real time series of Nt
// samples — the Fᴴ of Eqn. 2 restricted to the seismic bandwidth.
func (ds *Dataset) TimeSeries(spectrum []complex64) []float64 {
	if len(spectrum) != len(ds.FreqIdx) {
		panic("seismic: TimeSeries spectrum length mismatch")
	}
	full := make([]complex128, ds.Nt/2+1)
	for i, bin := range ds.FreqIdx {
		full[bin] = complex128(spectrum[i])
	}
	return fft.IRFFT(full, ds.Nt)
}

// Gather is a time-domain panel: Traces[i] is the time series of channel i
// (a receiver or source position), each of length Nt.
type Gather struct {
	Traces [][]float64
	Dt     float64
}

// NumTraces returns the channel count.
func (g *Gather) NumTraces() int { return len(g.Traces) }

// MaxAbs returns the largest absolute amplitude, used for display scaling.
func (g *Gather) MaxAbs() float64 {
	var m float64
	for _, tr := range g.Traces {
		for _, v := range tr {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
	}
	return m
}

// Energy returns the total squared amplitude.
func (g *Gather) Energy() float64 {
	var e float64
	for _, tr := range g.Traces {
		for _, v := range tr {
			e += v * v
		}
	}
	return e
}

// WindowEnergy returns the energy between t0 and t1 seconds, the metric
// used to quantify multiple suppression in the Fig. 13 analysis.
func (g *Gather) WindowEnergy(t0, t1 float64) float64 {
	i0 := int(t0 / g.Dt)
	i1 := int(t1 / g.Dt)
	var e float64
	for _, tr := range g.Traces {
		for i := i0; i < i1 && i < len(tr); i++ {
			if i >= 0 {
				e += tr[i] * tr[i]
			}
		}
	}
	return e
}

// GatherFromPanels converts a frequency-domain panel (panel[f][c] for
// frequency f, channel c) into a time-domain Gather.
func (ds *Dataset) GatherFromPanels(panel [][]complex64, nchan int) *Gather {
	traces := make([][]float64, nchan)
	spec := make([]complex64, len(ds.FreqIdx))
	for c := 0; c < nchan; c++ {
		for f := range ds.FreqIdx {
			spec[f] = panel[f][c]
		}
		traces[c] = ds.TimeSeries(spec)
	}
	return &Gather{Traces: traces, Dt: ds.Dt}
}

// ZeroOffsetSection extracts, for each receiver on the crossline iy, the
// trace of the given per-frequency matrix picker evaluated at the
// co-located (nearest) source — the zero-offset sections of Fig. 13.
// pick(f, r, s) returns the complex value at frequency index f for
// receiver r and source s.
func (ds *Dataset) ZeroOffsetSection(iy int, pick func(f, r, s int) complex64) *Gather {
	g := ds.Geom
	traces := make([][]float64, g.NrX)
	spec := make([]complex64, len(ds.FreqIdx))
	for ix := 0; ix < g.NrX; ix++ {
		r := g.ReceiverIndex(ix, iy)
		s := ds.nearestSource(r)
		for f := range ds.FreqIdx {
			spec[f] = pick(f, r, s)
		}
		traces[ix] = ds.TimeSeries(spec)
	}
	return &Gather{Traces: traces, Dt: ds.Dt}
}

// nearestSource returns the source index closest (horizontally) to
// receiver r.
func (ds *Dataset) nearestSource(r int) int {
	g := ds.Geom
	rx, ry, _ := g.receiverPos(r)
	best, bi := math.Inf(1), 0
	for s := 0; s < g.NumSources(); s++ {
		sx, sy, _ := g.sourcePos(s)
		d := (sx-rx)*(sx-rx) + (sy-ry)*(sy-ry)
		if d < best {
			best, bi = d, s
		}
	}
	return bi
}

// NMSE returns the normalized mean-square error Σ|a−b|²/Σ|b|² between two
// equal-length complex panels, the metric of Fig. 12's black curves.
func NMSE(a, b []complex64) float64 {
	if len(a) != len(b) {
		panic("seismic: NMSE length mismatch")
	}
	var num, den float64
	for i := range a {
		dr := float64(real(a[i]) - real(b[i]))
		di := float64(imag(a[i]) - imag(b[i]))
		num += dr*dr + di*di
		br := float64(real(b[i]))
		bi := float64(imag(b[i]))
		den += br*br + bi*bi
	}
	if den == 0 {
		return num
	}
	return num / den
}

// NMSEReal is NMSE over real-valued panels (time-domain gathers).
func NMSEReal(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("seismic: NMSEReal length mismatch")
	}
	var num, den float64
	for i := range a {
		d := a[i] - b[i]
		num += d * d
		den += b[i] * b[i]
	}
	if den == 0 {
		return num
	}
	return num / den
}

// Flatten concatenates a gather's traces into one vector for NMSE
// comparisons.
func (g *Gather) Flatten() []float64 {
	var n int
	for _, tr := range g.Traces {
		n += len(tr)
	}
	out := make([]float64, 0, n)
	for _, tr := range g.Traces {
		out = append(out, tr...)
	}
	return out
}
