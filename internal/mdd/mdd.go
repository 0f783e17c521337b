// Package mdd solves the Multi-Dimensional Deconvolution inverse problem
// (§3, Fig. 1): given the downgoing kernel K = P+ and upgoing data
// y = p−, recover the local reflectivity x = r by LSQR inversion of the
// MDC operator. The adjoint (cross-correlation) estimate is provided as
// the baseline whose free-surface artifacts inversion removes (Fig. 11a
// vs 11b), and a multi-virtual-source driver reproduces the embarrassingly
// parallel line inversion of §6.4 (Fig. 13).
package mdd

import (
	"fmt"

	"repro/internal/fanout"
	"repro/internal/lsqr"
	"repro/internal/mdc"
	"repro/internal/seismic"
)

// Problem binds a synthetic dataset to a (possibly compressed) kernel.
type Problem struct {
	DS *seismic.Dataset
	// K is the MDC kernel — a DenseKernel over DS.K or a TLRKernel built
	// from it; both expose the same operator.
	K mdc.Kernel
}

// NewProblem validates kernel/dataset consistency.
func NewProblem(ds *seismic.Dataset, k mdc.Kernel) (*Problem, error) {
	if k.NumFreqs() != ds.NumFreqs() {
		return nil, fmt.Errorf("mdd: kernel has %d freqs, dataset %d", k.NumFreqs(), ds.NumFreqs())
	}
	if k.Rows() != ds.Geom.NumSources() || k.Cols() != ds.Geom.NumReceivers() {
		return nil, fmt.Errorf("mdd: kernel %dx%d does not match geometry %dx%d",
			k.Rows(), k.Cols(), ds.Geom.NumSources(), ds.Geom.NumReceivers())
	}
	return &Problem{DS: ds, K: k}, nil
}

// Operator returns the frequency-domain MDC forward operator.
func (p *Problem) Operator() *mdc.FreqOperator {
	return &mdc.FreqOperator{K: p.K, Scale: float32(p.DS.DArea)}
}

// Data assembles the right-hand side for virtual source vs: the upgoing
// wavefield recorded at seafloor point vs from every source, per
// frequency (frequency-major: y[f·ns+s] = p−(ω_f; vs, s)).
func (p *Problem) Data(vs int) []complex64 {
	nf := p.DS.NumFreqs()
	ns := p.DS.Geom.NumSources()
	y := make([]complex64, nf*ns)
	for f := 0; f < nf; f++ {
		pm := p.DS.Pminus[f]
		for s := 0; s < ns; s++ {
			y[f*ns+s] = pm.At(vs, s)
		}
	}
	return y
}

// TrueReflectivity returns the ground-truth panels for virtual source vs
// (frequency-major: x[f·nr+v] = R(ω_f; v, vs)).
func (p *Problem) TrueReflectivity(vs int) []complex64 {
	nf := p.DS.NumFreqs()
	nr := p.DS.Geom.NumReceivers()
	x := make([]complex64, nf*nr)
	for f := 0; f < nf; f++ {
		copy(x[f*nr:(f+1)*nr], p.DS.Rtrue[f].Col(vs))
	}
	return x
}

// Adjoint computes the cross-correlation estimate x = Aᴴ y — the
// non-inverted baseline of Fig. 11a, contaminated by free-surface effects.
func (p *Problem) Adjoint(vs int) []complex64 {
	op := p.Operator()
	y := p.Data(vs)
	x := make([]complex64, op.Cols())
	op.ApplyAdjoint(y, x)
	return x
}

// Solution is the result of one virtual-source inversion.
type Solution struct {
	// VS is the virtual-source (seafloor point) index.
	VS int
	// X holds the recovered reflectivity panels (frequency-major, nf·nr).
	X []complex64
	// LSQR carries the iteration diagnostics.
	LSQR *lsqr.Result
}

// Invert solves the MDD problem for one virtual source with LSQR
// (the paper uses 30 iterations).
func (p *Problem) Invert(vs int, opts lsqr.Options) (*Solution, error) {
	op := p.Operator()
	y := p.Data(vs)
	res, err := lsqr.Solve(op, y, opts)
	if err != nil {
		return nil, fmt.Errorf("mdd: virtual source %d: %w", vs, err)
	}
	return &Solution{VS: vs, X: res.X, LSQR: res}, nil
}

// InvertLine solves many virtual sources in parallel on GOMAXPROCS
// workers — the embarrassingly parallel structure the paper exploits
// across 708 GPUs (§6.4).
func (p *Problem) InvertLine(vss []int, opts lsqr.Options) ([]*Solution, error) {
	sols := make([]*Solution, len(vss))
	errs := make([]error, len(vss))
	fanout.Do(len(vss), 0, func(_, i int) {
		sols[i], errs[i] = p.Invert(vss[i], opts)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sols, nil
}

// NMSEAgainstTruth returns the normalized mean-square error of panels x
// against the ground-truth reflectivity for virtual source vs — the
// quality metric of Fig. 12.
func (p *Problem) NMSEAgainstTruth(x []complex64, vs int) float64 {
	return seismic.NMSE(x, p.TrueReflectivity(vs))
}

// Gather converts reflectivity panels into a time-domain gather (one trace
// per seafloor point) for the Fig. 11-style displays.
func (p *Problem) Gather(x []complex64) *seismic.Gather {
	nf := p.DS.NumFreqs()
	nr := p.DS.Geom.NumReceivers()
	panel := make([][]complex64, nf)
	for f := 0; f < nf; f++ {
		panel[f] = x[f*nr : (f+1)*nr]
	}
	return p.DS.GatherFromPanels(panel, nr)
}
