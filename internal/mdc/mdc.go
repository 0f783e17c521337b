// Package mdc implements the Multi-Dimensional Convolution operator of
// Eqn. (2): y = Fᴴ K F x, where K applies one matrix-vector product per
// frequency in the seismic band and F/Fᴴ move between time and frequency.
// The kernel K is pluggable: dense frequency matrices or TLR-compressed
// ones (the paper's contribution), so the same MDD driver runs against
// both and quantifies the compression error end to end.
package mdc

import (
	"fmt"

	"repro/internal/cfloat"
	"repro/internal/dense"
	"repro/internal/fanout"
	"repro/internal/obs"
	"repro/internal/tlr"
)

// MDC operator metrics: forward/adjoint timers for the frequency-domain
// operator of MDD and stage timers for the time-domain Eqn. (2) pipeline
// (S, K, Sᴴ), each indexed by product direction.
var (
	obsFreq = [...]*obs.Timer{
		forward: obs.NewTimer("mdc.freq.apply"),
		adjoint: obs.NewTimer("mdc.freq.adjoint"),
	}
	obsFreqStep = obs.NewTimer("mdc.freq.step")
	obsTime     = [...]*obs.Timer{
		forward: obs.NewTimer("mdc.time.apply"),
		adjoint: obs.NewTimer("mdc.time.adjoint"),
	}
	obsCompressK = obs.NewTimer("mdc.compress_kernel")
	obsFreqCount = obs.NewCounter("mdc.freq.mvms")
)

// Kernel is the per-frequency matrix stack K of Eqn. (2): NumFreqs
// matrices, each Rows×Cols (sources × seafloor points).
type Kernel interface {
	NumFreqs() int
	Rows() int
	Cols() int
	// Apply computes y = K_f x for frequency index f.
	Apply(f int, x, y []complex64)
	// ApplyAdjoint computes y = K_fᴴ x.
	ApplyAdjoint(f int, x, y []complex64)
	// Bytes returns the kernel storage footprint.
	Bytes() int64
}

// NormalKernel is the kernel's one optional fused capability: a kernel
// that can run a forward product and an adjoint one of a vector built
// from it in one sweep over its factors. The TLR kernel implements it
// with tlr.Matrix.MulVecStep and MulVecNormal; FreqOperator.ApplyStep,
// the one place it is detected, composes Apply and ApplyAdjoint for
// every other kernel with the same float32 operations.
type NormalKernel interface {
	Kernel
	// ApplyNormal computes y = K_fᴴ K_f x (len(x) = len(y) = Cols).
	ApplyNormal(f int, x, y []complex64)
	// ApplyStep computes w = scale·K_f x − alpha·u, then z = K_fᴴ w
	// (len(x) = len(z) = Cols, len(u) = len(w) = Rows; u may be nil
	// when alpha is 0).
	ApplyStep(f int, x []complex64, scale, alpha float32, u, w, z []complex64)
}

// CheckedKernel is the retired fallible twin of Kernel. Nothing in the
// tree implements or consumes it: operators validate the frequency-major
// vectors once and hand kernels exact-length blocks, so a kernel product
// cannot fail, and faults enter at batch.ShardExec and
// lsqr.FallibleOperator. The declaration stays only because bench/
// (frozen by BENCHMARK.json) names the type; it goes in the next
// benchmark revision.
type CheckedKernel interface {
	Kernel
	ApplyChecked(f int, x, y []complex64) error
	ApplyAdjointChecked(f int, x, y []complex64) error
}

// DenseKernel wraps a stack of dense frequency matrices.
type DenseKernel struct {
	Mats []*dense.Matrix
}

// NewDenseKernel validates that all matrices share one shape.
func NewDenseKernel(mats []*dense.Matrix) (*DenseKernel, error) {
	if len(mats) == 0 {
		return nil, fmt.Errorf("mdc: empty kernel")
	}
	r, c := mats[0].Rows, mats[0].Cols
	for i, m := range mats {
		if m.Rows != r || m.Cols != c {
			return nil, fmt.Errorf("mdc: matrix %d is %dx%d, want %dx%d", i, m.Rows, m.Cols, r, c)
		}
	}
	return &DenseKernel{Mats: mats}, nil
}

// NumFreqs implements Kernel.
func (k *DenseKernel) NumFreqs() int { return len(k.Mats) }

// Rows implements Kernel.
func (k *DenseKernel) Rows() int { return k.Mats[0].Rows }

// Cols implements Kernel.
func (k *DenseKernel) Cols() int { return k.Mats[0].Cols }

// Apply implements Kernel. Registered hot path: one MVM per in-band
// frequency per operator application.
func (k *DenseKernel) Apply(f int, x, y []complex64) { k.Mats[f].MulVec(x, y) }

// ApplyAdjoint implements Kernel.
func (k *DenseKernel) ApplyAdjoint(f int, x, y []complex64) { k.Mats[f].MulVecConjTrans(x, y) }

// Bytes implements Kernel.
func (k *DenseKernel) Bytes() int64 {
	var b int64
	for _, m := range k.Mats {
		b += m.Bytes()
	}
	return b
}

// TLRKernel wraps a stack of TLR-compressed frequency matrices.
type TLRKernel struct {
	Mats []*tlr.Matrix
}

// CompressKernel TLR-compresses each frequency matrix of a dense kernel
// with the given options — the paper's pre-processing step.
func CompressKernel(k *DenseKernel, opts tlr.Options) (*TLRKernel, error) {
	defer obsCompressK.Start().End()
	out := make([]*tlr.Matrix, len(k.Mats))
	for i, m := range k.Mats {
		tm, err := tlr.Compress(m, opts)
		if err != nil {
			return nil, fmt.Errorf("mdc: compressing frequency %d: %w", i, err)
		}
		out[i] = tm
	}
	return &TLRKernel{Mats: out}, nil
}

// NumFreqs implements Kernel.
func (k *TLRKernel) NumFreqs() int { return len(k.Mats) }

// Rows implements Kernel.
func (k *TLRKernel) Rows() int { return k.Mats[0].M }

// Cols implements Kernel.
func (k *TLRKernel) Cols() int { return k.Mats[0].N }

// Apply implements Kernel. Registered hot path: one TLR-MVM per in-band
// frequency per operator application.
func (k *TLRKernel) Apply(f int, x, y []complex64) { k.Mats[f].MulVec(x, y) }

// ApplyAdjoint implements Kernel.
func (k *TLRKernel) ApplyAdjoint(f int, x, y []complex64) { k.Mats[f].MulVecConjTrans(x, y) }

// ApplyNormal implements NormalKernel: tlr.Matrix.MulVecNormal.
// Registered hot path (mdc.kernel_tlr_normal).
func (k *TLRKernel) ApplyNormal(f int, x, y []complex64) { k.Mats[f].MulVecNormal(x, y) }

// ApplyStep implements NormalKernel: tlr.Matrix.MulVecStep, one sweep
// over frequency f's tiles per LSQR iteration.
func (k *TLRKernel) ApplyStep(f int, x []complex64, scale, alpha float32, u, w, z []complex64) {
	k.Mats[f].MulVecStep(x, scale, alpha, u, w, z)
}

// Bytes implements Kernel.
func (k *TLRKernel) Bytes() int64 {
	var b int64
	for _, m := range k.Mats {
		b += m.CompressedBytes()
	}
	return b
}

// FreqOperator is the frequency-domain MDC operator used by MDD: the
// unknown and data live on the in-band frequency grid (frequency-major
// layout: x[f·Cols+v], y[f·Rows+s]) and the operator applies one scaled
// kernel MVM per frequency, in parallel. It satisfies lsqr.StepOperator.
type FreqOperator struct {
	K Kernel
	// Scale multiplies every MVM; the MDC surface-integration weight dA.
	Scale float32
	// Workers bounds the per-frequency parallelism (0 = GOMAXPROCS).
	Workers int
}

// Rows implements lsqr.Operator: total data length nf·nsrc.
func (op *FreqOperator) Rows() int { return op.K.NumFreqs() * op.K.Rows() }

// Cols implements lsqr.Operator: total model length nf·nrec.
func (op *FreqOperator) Cols() int { return op.K.NumFreqs() * op.K.Cols() }

// Apply implements lsqr.Operator. It panics on invalid vectors; faults
// the stack must survive enter one level up (ShardedFreqOperator,
// lsqr.FallibleOperator), never at a kernel.
func (op *FreqOperator) Apply(x, y []complex64) {
	if err := op.run(x, y, forward); err != nil {
		panic(err)
	}
}

// ApplyAdjoint implements lsqr.Operator. It panics on invalid vectors.
func (op *FreqOperator) ApplyAdjoint(x, y []complex64) {
	if err := op.run(x, y, adjoint); err != nil {
		panic(err)
	}
}

// ApplyStep implements lsqr.StepOperator: w = A x − alpha·u, then
// z = Aᴴ w (x and z on the model grid, u and w on the data grid; u may
// be nil when alpha is 0). The operator is frequency-block-diagonal, so
// the step factors per frequency: the kernel's one-sweep step when it
// implements NormalKernel (the TLR kernel does), otherwise Apply, the
// subtract (cfloat.ScaleSub) and ApplyAdjoint. Either way the result is
// Apply, cfloat.ScaleSub over the whole vector and ApplyAdjoint bit for
// bit. It panics on invalid vectors.
func (op *FreqOperator) ApplyStep(x []complex64, alpha float32, u, w, z []complex64) {
	defer obsFreqStep.Start().End()
	fwd, adj := shapeFor(op.K, forward, op.Scale), shapeFor(op.K, adjoint, op.Scale)
	if fwd.nf == 0 {
		return // zero-dimensional operator: nothing to apply
	}
	obsFreqCount.Add(int64(2 * fwd.nf))
	err := fwd.check("FreqOperator", x, w)
	if err == nil {
		err = adj.check("FreqOperator", w, z)
	}
	if err == nil && u != nil {
		err = fwd.check("FreqOperator", x, u)
	}
	if err != nil {
		panic(err)
	}
	nk, fused := op.K.(NormalKernel)
	fanout.Do(fwd.nf, fanout.PoolSize(fwd.nf, op.Workers), func(_, f int) {
		xf, wf, zf := fwd.in(x, f), fwd.out(w, f), adj.out(z, f)
		var uf []complex64
		if u != nil {
			uf = fwd.out(u, f)
		}
		if fused {
			nk.ApplyStep(f, xf, real(fwd.scale), alpha, uf, wf, zf)
		} else {
			fwd.apply(f, xf, wf)
			if uf != nil {
				cfloat.ScaleSub(1, wf, alpha, uf)
			}
			op.K.ApplyAdjoint(f, wf, zf)
		}
		if adj.scale != 1 {
			cfloat.Scal(adj.scale, zf)
		}
	})
}

func (op *FreqOperator) run(x, y []complex64, dir product) error {
	defer obsFreq[dir].Start().End()
	b := shapeFor(op.K, dir, op.Scale)
	if b.nf == 0 {
		return nil // zero-dimensional operator: nothing to apply
	}
	obsFreqCount.Add(int64(b.nf))
	if err := b.check("FreqOperator", x, y); err != nil {
		return err
	}
	fanout.Do(b.nf, fanout.PoolSize(b.nf, op.Workers), func(_, f int) {
		b.apply(f, b.in(x, f), b.out(y, f))
	})
	return nil
}

// product is the direction of one per-frequency sweep over a kernel
// stack.
type product int

const (
	forward product = iota // y_f = K_f x_f
	adjoint                // y_f = K_fᴴ x_f
)

// freqBlocks is one product over a kernel stack in frequency-major
// shape — nf blocks of nin inputs and nout outputs — plus the factor
// every output block is multiplied by. The one place the operators
// (FreqOperator, TimeOperator, ShardedFreqOperator) resolve scale,
// check bounds, slice per frequency, and pick the kernel method.
type freqBlocks struct {
	k             Kernel
	dir           product
	nf, nin, nout int
	scale         complex64
}

// shapeFor resolves the product of k in direction dir. A zero scale
// means unscaled.
func shapeFor(k Kernel, dir product, scale float32) freqBlocks {
	b := freqBlocks{k: k, dir: dir, nf: k.NumFreqs(), nin: k.Cols(), nout: k.Rows(), scale: 1}
	if dir == adjoint {
		b.nin, b.nout = b.nout, b.nin
	}
	if scale != 0 {
		b.scale = complex(scale, 0)
	}
	return b
}

// apply computes output block yf of frequency f from input block xf.
// Kernels are infallible here: check has validated the vectors, so
// every block has its exact length and f is in range.
func (b freqBlocks) apply(f int, xf, yf []complex64) {
	if b.dir == forward {
		b.k.Apply(f, xf, yf)
	} else {
		b.k.ApplyAdjoint(f, xf, yf)
	}
	if b.scale != 1 {
		cfloat.Scal(b.scale, yf)
	}
}

// check validates the frequency-major vectors of one product.
func (b freqBlocks) check(who string, x, y []complex64) error {
	if len(x) < b.nf*b.nin {
		return fmt.Errorf("mdc: %s input has %d elements, want %d", who, len(x), b.nf*b.nin)
	}
	if len(y) < b.nf*b.nout {
		return fmt.Errorf("mdc: %s output has %d elements, want %d", who, len(y), b.nf*b.nout)
	}
	return nil
}

func (b freqBlocks) in(x []complex64, f int) []complex64  { return x[f*b.nin : (f+1)*b.nin] }
func (b freqBlocks) out(y []complex64, f int) []complex64 { return y[f*b.nout : (f+1)*b.nout] }

// TimeOperator is the literal Eqn. (2) composition A = Sᴴ K S over complex
// time-domain traces, where S is the unitary band-sampling DFT (forward
// unitary FFT followed by in-band bin selection) and Sᴴ its exact adjoint
// (zero-padding followed by the unitary inverse FFT). Using the unitary
// pair keeps ⟨Ax, y⟩ = ⟨x, Aᴴy⟩ exact, which LSQR requires.
//
// Layout: x holds Cols() channels of Nt complex samples, channel-major
// (x[c·Nt+t]); y holds Rows() channels likewise.
//
// The first product or stage fixes the transform: Nt and FreqIdx must not
// change afterwards. The operator is safe for concurrent products.
type TimeOperator struct {
	K Kernel
	// Nt is the time-series length; FreqIdx maps each kernel frequency to
	// its bin on the length-Nt DFT grid — distinct bins in [0, Nt).
	Nt      int
	FreqIdx []int
	Scale   float32
	Workers int

	stages // the S / Sᴴ stages' plan (pencil.go)
}

// Rows implements lsqr.Operator.
func (op *TimeOperator) Rows() int { return op.K.Rows() * op.Nt }

// Cols implements lsqr.Operator.
func (op *TimeOperator) Cols() int { return op.K.Cols() * op.Nt }

// Apply implements lsqr.Operator. Its vector space (channels × Nt) does
// not match the oracle matrix; it is covered by this package's reference,
// round-trip and adjoint tests.
func (op *TimeOperator) Apply(x, y []complex64) { op.run(x, y, forward) }

// ApplyAdjoint implements lsqr.Operator; as Apply, over Kᴴ.
func (op *TimeOperator) ApplyAdjoint(x, y []complex64) { op.run(x, y, adjoint) }

// AnalyzeTime applies the S stage standalone: channel-major time traces
// in x (nchan × Nt) are transformed to frequency-major in-band panels in
// out (nf × nchan) with the unitary forward scaling.
//
// Its unitarity is checked by this package's round-trip tests.
func (op *TimeOperator) AnalyzeTime(x, out []complex64, nchan int) {
	if len(x) < nchan*op.Nt || len(out) < len(op.FreqIdx)*nchan {
		panic("mdc: AnalyzeTime buffer too short")
	}
	op.analyze(x, out, nchan)
}

// SynthesizeTime applies the Sᴴ stage standalone: frequency-major in-band
// panels in x (nf × nchan) become channel-major time traces in out
// (nchan × Nt) with the unitary inverse scaling.
//
// Its unitarity is checked by this package's round-trip tests.
func (op *TimeOperator) SynthesizeTime(x, out []complex64, nchan int) {
	if len(x) < len(op.FreqIdx)*nchan || len(out) < nchan*op.Nt {
		panic("mdc: SynthesizeTime buffer too short")
	}
	op.synthesize(x, out, nchan)
}

func (op *TimeOperator) run(x, y []complex64, dir product) {
	defer obsTime[dir].Start().End()
	if len(op.FreqIdx) != op.K.NumFreqs() {
		panic("mdc: TimeOperator FreqIdx length mismatch")
	}
	b := shapeFor(op.K, dir, op.Scale)
	if len(x) < b.nin*op.Nt || len(y) < b.nout*op.Nt {
		panic("mdc: TimeOperator vector too short")
	}
	// S: per input channel, unitary forward FFT, keep in-band bins
	xf := make([]complex64, b.nf*b.nin) // frequency-major panels
	op.analyze(x, xf, b.nin)
	// K (or Kᴴ) per frequency
	yf := make([]complex64, b.nf*b.nout)
	fanout.Do(b.nf, op.Workers, func(_, f int) {
		b.apply(f, b.in(xf, f), b.out(yf, f))
	})
	// Sᴴ: zero-pad the band back onto the DFT grid, unitary inverse FFT
	op.synthesize(yf, y, b.nout)
}
