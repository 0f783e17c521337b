package mdc

import (
	"bytes"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/cfloat"
	"repro/internal/dense"
	"repro/internal/lsqr"
	"repro/internal/opstore"
	"repro/internal/tlr"
	"repro/internal/tlrio"
)

// composedKernel hides a kernel's NormalKernel capability, so
// FreqOperator.ApplyStep composes Apply, the subtract and ApplyAdjoint.
type composedKernel struct{ Kernel }

// stepKernels returns one TLR kernel of nf random frequencies in memory
// and its store-backed twin over a quarter budget, where most tiles are
// streamed: a step reads each of them once, for both of its halves.
func stepKernels(t *testing.T, nf, rows, cols int) map[string]*TLRKernel {
	t.Helper()
	rng := rand.New(rand.NewSource(29))
	mats := make([]*tlr.Matrix, nf)
	freqs := make([]float64, nf)
	for f := range mats {
		var err error
		if mats[f], err = tlr.Compress(dense.Random(rng, rows, cols), tlr.Options{NB: 8, Tol: 1e-3}); err != nil {
			t.Fatal(err)
		}
		freqs[f] = float64(f + 1)
	}
	mem := &TLRKernel{Mats: mats}
	var buf bytes.Buffer
	if err := tlrio.WritePaged(&buf, &tlrio.Kernel{Freqs: freqs, Mats: mats}, nil); err != nil {
		t.Fatal(err)
	}
	st, err := opstore.OpenBytes(buf.Bytes(), mem.Bytes()/4)
	if err != nil {
		t.Fatal(err)
	}
	ooc := &TLRKernel{Mats: make([]*tlr.Matrix, nf)}
	for f := range ooc.Mats {
		if ooc.Mats[f], err = st.Matrix(f); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]*TLRKernel{"in-memory": mem, "store-backed": ooc}
}

// TestFreqOperatorStepMatchesComposition holds FreqOperator.ApplyStep to
// Apply → cfloat.ScaleSub → ApplyAdjoint over the whole vectors, and to
// its own composed route (the kernel's step hidden), with ==, at 1, 2, 4
// and 8 workers, unscaled and scaled, in memory and store-backed. At
// α = 0 with no u it is the normal product AᴴA x.
func TestFreqOperatorStepMatchesComposition(t *testing.T) {
	const nf, rows, cols = 5, 37, 29
	rng := rand.New(rand.NewSource(30))
	x, u := dense.Random(rng, nf*cols, 1).Data, dense.Random(rng, nf*rows, 1).Data
	for name, k := range stepKernels(t, nf, rows, cols) {
		for _, scale := range []float32{0, 1, 0.37} {
			for _, alpha := range []float32{0, 0.61} {
				for _, workers := range []int{1, 2, 4, 8} {
					op := &FreqOperator{K: k, Scale: scale, Workers: workers}
					wantW, wantZ := make([]complex64, nf*rows), make([]complex64, nf*cols)
					op.Apply(x, wantW)
					step := u
					if alpha == 0 {
						step = nil
					} else {
						cfloat.ScaleSub(1, wantW, alpha, u)
					}
					op.ApplyAdjoint(wantW, wantZ)
					for _, route := range []*FreqOperator{op, {K: composedKernel{k}, Scale: scale, Workers: workers}} {
						w, z := dense.Random(rng, nf*rows, 1).Data, dense.Random(rng, nf*cols, 1).Data
						route.ApplyStep(x, alpha, step, w, z)
						_, fused := route.K.(NormalKernel)
						for i := range wantW {
							if w[i] != wantW[i] {
								t.Fatalf("%s scale %g α %g workers %d fused %v: w[%d] = %v, composition %v", name, scale, alpha, workers, fused, i, w[i], wantW[i])
							}
						}
						for i := range wantZ {
							if z[i] != wantZ[i] {
								t.Fatalf("%s scale %g α %g workers %d fused %v: z[%d] = %v, composition %v", name, scale, alpha, workers, fused, i, z[i], wantZ[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestSolveStepRouteMatchesComposed is the step route end to end: LSQR
// over a FreqOperator with the TLR kernel's one-sweep step, against the
// same operator with ApplyStep hidden from the solver, gives == solutions
// and residual histories.
func TestSolveStepRouteMatchesComposed(t *testing.T) {
	const nf, rows, cols = 3, 37, 29
	rng := rand.New(rand.NewSource(31))
	b := dense.Random(rng, nf*rows, 1).Data
	opts := lsqr.Options{MaxIters: 12, ATol: 1e-30, BTol: 1e-30}
	for name, k := range stepKernels(t, nf, rows, cols) {
		for _, scale := range []float32{1, 0.37} {
			for _, workers := range []int{1, 2, 4, 8} {
				op := &FreqOperator{K: k, Scale: scale, Workers: workers}
				got, err := lsqr.Solve(op, b, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := lsqr.Solve(struct{ lsqr.Operator }{op}, b, opts)
				if err != nil {
					t.Fatal(err)
				}
				sameSolve(t, name, got, want)
			}
		}
	}
}

// TestStepBreakdown solves with a rank-one A = 1·1ᴴ and b = 1 in its
// range, where the first step's w = A v − α u vanishes exactly (every
// value is a power of two): the solve must stop converged on the exact
// solution without dividing z by β = 0, and both routes must agree.
func TestStepBreakdown(t *testing.T) {
	const n, nb = 16, 8
	ones := func(r int) *dense.Matrix {
		m := dense.New(r, 1)
		for i := range m.Data {
			m.Data[i] = 1
		}
		return m
	}
	tm := &tlr.Matrix{M: n, N: n, NB: nb, MT: n / nb, NT: n / nb, Tiles: make([]*tlr.Tile, (n/nb)*(n/nb))}
	for i := range tm.Tiles {
		tm.Tiles[i] = &tlr.Tile{U: ones(nb), V: ones(nb)}
	}
	b := ones(n).Data
	op := &FreqOperator{K: &TLRKernel{Mats: []*tlr.Matrix{tm}}, Workers: 1}
	got, err := lsqr.Solve(op, b, lsqr.Options{MaxIters: 5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := lsqr.Solve(struct{ lsqr.Operator }{op}, b, lsqr.Options{MaxIters: 5})
	if err != nil {
		t.Fatal(err)
	}
	sameSolve(t, "rank-one", got, want)
	if !got.Converged || got.Iters != 1 || got.ResidualNorm != 0 {
		t.Errorf("rank-one solve: converged %v after %d iterations, residual %g; want converged after 1, residual 0",
			got.Converged, got.Iters, got.ResidualNorm)
	}
	for i, v := range got.X {
		if v != 1.0/n {
			t.Fatalf("x[%d] = %v, want %v", i, v, 1.0/n)
		}
	}
}

// sameSolve requires two LSQR results to be equal element for element,
// and finite.
func sameSolve(t *testing.T, name string, got, want *lsqr.Result) {
	t.Helper()
	if got.Iters != want.Iters || got.Converged != want.Converged || len(got.ResidualHistory) != len(want.ResidualHistory) {
		t.Fatalf("%s: %d iterations (converged %v), composed %d (%v)", name, got.Iters, got.Converged, want.Iters, want.Converged)
	}
	for i, r := range want.ResidualHistory {
		if got.ResidualHistory[i] != r || math.IsNaN(r) || math.IsInf(r, 0) {
			t.Fatalf("%s: residual %d is %g, composed %g", name, i, got.ResidualHistory[i], r)
		}
	}
	for i, v := range want.X {
		if got.X[i] != v || cmplx.IsNaN(complex128(v)) || cmplx.IsInf(complex128(v)) {
			t.Fatalf("%s: x[%d] = %v, composed %v", name, i, got.X[i], v)
		}
	}
}
