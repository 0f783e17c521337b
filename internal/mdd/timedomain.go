package mdd

import (
	"fmt"

	"repro/internal/lsqr"
	"repro/internal/mdc"
	"repro/internal/seismic"
)

// TimeSolution is the result of a time-domain inversion.
type TimeSolution struct {
	VS int
	// X holds the recovered reflectivity as complex time series,
	// channel-major: X[v·Nt+t] for seafloor point v, sample t.
	X []complex64
	// LSQR carries iteration diagnostics.
	LSQR *lsqr.Result
}

// TimeOperator builds the literal Eqn. (2) operator A = Sᴴ K S over
// time-domain traces for this problem (§6.2's time-domain MDD: all
// frequencies are solved jointly through the shared time axis rather
// than one at a time — the approach of [43] the paper adopts).
func (p *Problem) TimeOperator() *mdc.TimeOperator {
	return &mdc.TimeOperator{
		K:       p.K,
		Nt:      p.DS.Nt,
		FreqIdx: p.DS.FreqIdx,
		Scale:   float32(p.DS.DArea),
	}
}

// TimeData assembles the right-hand side for the time-domain solve: the
// upgoing data for virtual source vs, transformed to complex time traces
// with the unitary band-limited synthesis the TimeOperator's Sᴴ uses.
func (p *Problem) TimeData(vs int) []complex64 {
	return p.timeData(p.TimeOperator(), vs)
}

// timeData is TimeData through a given operator: frequency panels → time
// traces by the same unitary transform (and the same plan) the solve
// applies, so the two sides see consistent scalings.
func (p *Problem) timeData(op *mdc.TimeOperator, vs int) []complex64 {
	ns := p.DS.Geom.NumSources()
	out := make([]complex64, ns*op.Nt)
	op.SynthesizeTime(p.Data(vs), out, ns)
	return out
}

// InvertTimeDomain solves the MDD problem for one virtual source entirely
// in the time domain: LSQR over the Sᴴ K S operator with time traces as
// unknowns and data. Without extra constraints this is mathematically
// equivalent to the frequency-domain solve (the operator is block-diagonal
// across the band), which makes it a strong cross-validation of the two
// operator implementations; with time-domain constraints (windowing,
// causality) it becomes the preconditioned scheme of [43].
func (p *Problem) InvertTimeDomain(vs int, opts lsqr.Options) (*TimeSolution, error) {
	op := p.TimeOperator()
	y := p.timeData(op, vs)
	res, err := lsqr.Solve(op, y, opts)
	if err != nil {
		return nil, fmt.Errorf("mdd: time-domain virtual source %d: %w", vs, err)
	}
	return &TimeSolution{VS: vs, X: res.X, LSQR: res}, nil
}

// TimeSolutionPanels converts a time-domain solution back onto the in-band
// frequency grid (frequency-major), for comparison with frequency-domain
// solutions and the ground truth.
func (p *Problem) TimeSolutionPanels(sol *TimeSolution) []complex64 {
	op := p.TimeOperator()
	nr := p.DS.Geom.NumReceivers()
	out := make([]complex64, p.DS.NumFreqs()*nr)
	op.AnalyzeTime(sol.X, out, nr)
	return out
}

// TimeGather converts a time-domain solution into a real-valued gather
// for display: the real part of each channel's complex trace, rescaled by
// the unitary-to-physical factor so amplitudes match Problem.Gather.
func (p *Problem) TimeGather(sol *TimeSolution) *seismic.Gather {
	nr := p.DS.Geom.NumReceivers()
	nt := p.DS.Nt
	g := &seismic.Gather{Dt: p.DS.Dt}
	for v := 0; v < nr; v++ {
		tr := make([]float64, nt)
		for t := 0; t < nt; t++ {
			tr[t] = float64(real(sol.X[v*nt+t]))
		}
		g.Traces = append(g.Traces, tr)
	}
	return g
}
