package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/cfloat"
	"repro/internal/dense"
	"repro/internal/ranks"
	"repro/internal/tlr"
)

// synthSpec sizes a synthetic TLR operator: the paper's calibrated
// distance-decay rank layout (ranks.NewCustom) over NumFreqs matrices of
// Rows×Cols with tile size NB, scaled so all of them together take
// TargetBytes. Freqs selects which of the layout's frequencies are
// materialized (nil = all).
type synthSpec struct {
	Rows, Cols, NB int
	NumFreqs       int
	TargetBytes    int64
	Freqs          []int
}

func (s synthSpec) freqs() []int {
	if s.Freqs != nil {
		return s.Freqs
	}
	out := make([]int, s.NumFreqs)
	for i := range out {
		out[i] = i
	}
	return out
}

// synthOperator assembles the operator directly as tlr.Matrix{Tiles: …}
// with seeded uniform U and V factors. Each frequency draws from its own
// source, seeded in frequency order from seed, so the fill parallelizes
// and still repeats exactly.
func synthOperator(spec synthSpec, seed int64) ([]*tlr.Matrix, error) {
	dist, err := ranks.NewCustom(ranks.Params{
		NB: spec.NB, Rows: spec.Rows, Cols: spec.Cols,
		NumFreqs: spec.NumFreqs, TargetBytes: spec.TargetBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("rank layout: %w", err)
	}
	freqs := spec.freqs()
	master := rand.New(rand.NewSource(seed))
	seeds := make([]int64, len(freqs))
	for i := range seeds {
		seeds[i] = master.Int63()
	}
	mats := make([]*tlr.Matrix, len(freqs))
	parallelFor(len(freqs), runtime.GOMAXPROCS(0), func(fi int) {
		rng := rand.New(rand.NewSource(seeds[fi]))
		m := &tlr.Matrix{
			M: spec.Rows, N: spec.Cols, NB: spec.NB,
			MT: dist.MT, NT: dist.NT,
			Tiles: make([]*tlr.Tile, dist.MT*dist.NT),
		}
		for i := 0; i < dist.MT; i++ {
			rows := min((i+1)*spec.NB, spec.Rows) - i*spec.NB
			for j := 0; j < dist.NT; j++ {
				cols := min((j+1)*spec.NB, spec.Cols) - j*spec.NB
				k := min(dist.Rank(freqs[fi], i, j), rows, cols)
				u, v := dense.New(rows, k), dense.New(cols, k)
				fillUniform(rng, u.Data)
				fillUniform(rng, v.Data)
				m.Tiles[i*dist.NT+j] = &tlr.Tile{U: u, V: v}
			}
		}
		mats[fi] = m
	})
	return mats, nil
}

// fillUniform fills x with values uniform in [-0.5, 0.5)², one 63-bit
// draw per element (24 bits each for the real and imaginary part).
func fillUniform(rng *rand.Rand, x []complex64) {
	const inv = 1.0 / (1 << 24)
	for i := range x {
		r := rng.Int63()
		re := float32(r&(1<<24-1))*inv - 0.5
		im := float32((r>>24)&(1<<24-1))*inv - 0.5
		x[i] = complex(re, im)
	}
}

// randomVector returns n seeded uniform complex values.
func randomVector(rng *rand.Rand, n int) []complex64 {
	x := make([]complex64, n)
	fillUniform(rng, x)
	return x
}

func operatorBytes(mats []*tlr.Matrix) int64 {
	var b int64
	for _, m := range mats {
		b += m.CompressedBytes()
	}
	return b
}

// refOperator is the reference the production route is checked against:
// one sequential AoS tlr.MulVec / MulVecConjTrans per frequency, fanned
// out by the benchmark's own loop, so it shares neither the kernel
// variant nor the mdc dispatch with the measured path. Layout matches
// mdc.FreqOperator (frequency-major blocks).
type refOperator struct {
	mats  []*tlr.Matrix
	scale float32
}

func (o *refOperator) Rows() int { return len(o.mats) * o.mats[0].M }
func (o *refOperator) Cols() int { return len(o.mats) * o.mats[0].N }

func (o *refOperator) Apply(x, y []complex64) {
	m, n := o.mats[0].M, o.mats[0].N
	parallelFor(len(o.mats), runtime.GOMAXPROCS(0), func(f int) {
		yf := y[f*m : (f+1)*m]
		o.mats[f].MulVec(x[f*n:(f+1)*n], yf)
		o.rescale(yf)
	})
}

func (o *refOperator) ApplyAdjoint(x, y []complex64) {
	m, n := o.mats[0].M, o.mats[0].N
	parallelFor(len(o.mats), runtime.GOMAXPROCS(0), func(f int) {
		yf := y[f*n : (f+1)*n]
		o.mats[f].MulVecConjTrans(x[f*m:(f+1)*m], yf)
		o.rescale(yf)
	})
}

func (o *refOperator) rescale(y []complex64) {
	if o.scale != 0 && o.scale != 1 {
		cfloat.Scal(complex(o.scale, 0), y)
	}
}

// relResidual returns ‖b − A x‖/‖b‖ with A applied by op.
func relResidual(op interface {
	Rows() int
	Apply(x, y []complex64)
}, x, b []complex64) float64 {
	ax := make([]complex64, op.Rows())
	op.Apply(x, ax)
	cfloat.Axpy(-1, b, ax)
	return cfloat.Nrm2(ax) / cfloat.Nrm2(b)
}

// relDiff returns ‖a − b‖/‖b‖.
func relDiff(a, b []complex64) float64 {
	d := append([]complex64(nil), a...)
	cfloat.Axpy(-1, b, d)
	nb := cfloat.Nrm2(b)
	if nb == 0 {
		return cfloat.Nrm2(d)
	}
	return cfloat.Nrm2(d) / nb
}
