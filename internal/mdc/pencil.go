package mdc

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/fanout"
	"repro/internal/fft"
)

// The S and Sᴴ stages of TimeOperator transform one channel at a time:
// each trace goes through the full-length plan in a complex128 pencil,
// and the in-band bins go to and from the frequency-major panels at a
// stride of nchan. Channels go through the fan-out, one pencil per
// worker.

// stages is the transform state embedded in TimeOperator: the length-Nt
// plan, built on first use.
type stages struct {
	once sync.Once
	plan *fft.Plan
}

// setup builds the plan, once. FreqIdx is checked here, where every later
// transform would otherwise trust it: a bin off the DFT grid is an index
// panic from inside a stage, and a repeated bin makes S non-unitary
// without any symptom but a wrong solution.
func (op *TimeOperator) setup() {
	seen := make([]bool, max(op.Nt, 0))
	for f, bin := range op.FreqIdx {
		if bin < 0 || bin >= op.Nt {
			panic(fmt.Sprintf("mdc: TimeOperator FreqIdx[%d] = %d is outside [0, %d)", f, bin, op.Nt))
		}
		if seen[bin] {
			panic(fmt.Sprintf("mdc: TimeOperator FreqIdx[%d] repeats bin %d", f, bin))
		}
		seen[bin] = true
	}
	op.plan = fft.NewPlan(op.Nt)
}

// channels runs stage(pencil, c) for every channel c in [0, nchan) on the
// operator's workers, each with its own Nt-sample pencil.
func (op *TimeOperator) channels(nchan int, stage func(pencil []complex128, c int)) {
	op.once.Do(op.setup)
	workers := fanout.PoolSize(nchan, op.Workers)
	pencils := make([]complex128, workers*op.Nt)
	fanout.Do(nchan, workers, func(w, c int) {
		stage(pencils[w*op.Nt:(w+1)*op.Nt], c)
	})
}

// analyze is S: each trace of traces (channel-major) through the unitary
// forward transform, its in-band bins into bands (frequency-major).
func (op *TimeOperator) analyze(traces, bands []complex64, nchan int) {
	nt := op.Nt
	root := 1 / math.Sqrt(float64(nt))
	op.channels(nchan, func(buf []complex128, c int) {
		for t := range buf {
			buf[t] = complex128(traces[c*nt+t])
		}
		op.plan.Forward(buf)
		for f, bin := range op.FreqIdx {
			v := buf[bin]
			bands[f*nchan+c] = complex64(complex(real(v)*root, imag(v)*root))
		}
	})
}

// synthesize is Sᴴ: each channel's band zero-padded onto the DFT grid and
// through the unitary inverse transform into its trace.
func (op *TimeOperator) synthesize(bands, traces []complex64, nchan int) {
	nt := op.Nt
	rootInv := math.Sqrt(float64(nt))
	op.channels(nchan, func(buf []complex128, c int) {
		clear(buf)
		for f, bin := range op.FreqIdx {
			buf[bin] = complex128(bands[f*nchan+c])
		}
		op.plan.Inverse(buf)
		for t, v := range buf {
			traces[c*nt+t] = complex64(complex(real(v)*rootInv, imag(v)*rootInv))
		}
	})
}
