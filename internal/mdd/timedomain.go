package mdd

import (
	"fmt"

	"repro/internal/lsqr"
	"repro/internal/mdc"
)

// TimeSolution is the result of a time-domain inversion.
type TimeSolution struct {
	VS int
	// X holds the recovered reflectivity as complex time series,
	// channel-major: X[v·Nt+t] for seafloor point v, sample t — the
	// band-limited synthesis of the frequency-domain panels.
	X []complex64
	// LSQR carries the frequency-domain solve's iteration diagnostics,
	// with its X replaced by the time-domain X above.
	LSQR *lsqr.Result
}

// TimeOperator builds the literal Eqn. (2) operator A = Sᴴ K S over
// time-domain traces for this problem: a transform per channel on each
// side of every kernel product. InvertTimeDomain does not iterate over it; it
// is the reference for that solve (LSQR over it reaches the same
// solution by a different Krylov route) and supplies the S and Sᴴ
// stages for TimeData and TimeSolutionPanels.
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
	ns := p.DS.Geom.NumSources()
	out := make([]complex64, ns*p.DS.Nt)
	p.TimeOperator().SynthesizeTime(p.Data(vs), out, ns)
	return out
}

// InvertTimeDomain solves §6.2's time-domain MDD for one virtual source
// and returns the reflectivity as time traces. Without constraints the
// time-domain problem is the frequency-domain one: Sᴴ K S is
// block-diagonal over the band and S Sᴴ = I on it, so for panels x̂,
// ‖Sᴴd − Sᴴ K S (Sᴴx̂)‖ = ‖d − K x̂‖. It therefore runs Invert's LSQR
// over the FreqOperator (one fused kernel sweep per iteration, no
// transform) and synthesizes the solution panels once; the residual norms
// it reports are the time-domain ones. A time-domain constraint
// (windowing, causality, the preconditioned scheme of [43]) would need the
// TimeOperator in the loop.
func (p *Problem) InvertTimeDomain(vs int, opts lsqr.Options) (*TimeSolution, error) {
	res, err := lsqr.Solve(p.Operator(), p.Data(vs), opts)
	if err != nil {
		return nil, fmt.Errorf("mdd: time-domain virtual source %d: %w", vs, err)
	}
	nr := p.DS.Geom.NumReceivers()
	x := make([]complex64, nr*p.DS.Nt)
	p.TimeOperator().SynthesizeTime(res.X, x, nr)
	res.X = x
	return &TimeSolution{VS: vs, X: x, LSQR: res}, nil
}

// TimeSolutionPanels converts a time-domain solution back onto the in-band
// frequency grid (frequency-major), for comparison with frequency-domain
// solutions and the ground truth, and for display through Gather.
func (p *Problem) TimeSolutionPanels(sol *TimeSolution) []complex64 {
	op := p.TimeOperator()
	nr := p.DS.Geom.NumReceivers()
	out := make([]complex64, p.DS.NumFreqs()*nr)
	op.AnalyzeTime(sol.X, out, nr)
	return out
}
