// Package testkit is the shared correctness-tooling subsystem for the
// TLR-MVM reproduction. Before it existed every package validated itself
// in isolation with copy-pasted helpers (relErr in the lsqr and cgls
// tests, randMat in the cfloat tests, ad-hoc rand.New seeding
// everywhere); testkit centralizes three layers:
//
//  1. deterministic seeded generators for the matrix classes the paper
//     exercises — random dense Gaussian, rank-decaying, Hilbert-like,
//     and synthetic seismic frequency slices from internal/seismic;
//  2. uniform error metrics — relative 2-norm / Frobenius error,
//     element-wise max deviation, complex64 ULP distance — plus the
//     precision-derived tolerance formulas that turn a compression
//     accuracy and a storage format into an MVM error budget;
//  3. a differential oracle driver (oracle.go) that runs the same
//     (matrix, vector, tolerance, precision) case through dense MVM,
//     TLR-MVM (in memory and store-backed), the MDC operator, and the
//     wsesim functional path, asserting pairwise agreement and
//     hardware-model invariants.
//
// The package is imported only from tests. Packages that testkit itself
// depends on (dense, cfloat, tlr, batch, mdc, wsesim, precision, cs2,
// seismic) must consume it from external test packages (package
// foo_test) to avoid import cycles; leaf packages (adaptive, tlrmmm,
// lsqr, cgls, ...) may use it from either.
package testkit

import (
	"math/rand"
	"sync"

	"repro/internal/dense"
	"repro/internal/seismic"
)

// NewRNG returns a deterministic generator for the given seed. All
// repository tests derive their randomness from here so a failure
// reproduces from the seed alone.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Vec returns a length-n vector of iid standard complex Gaussian entries.
func Vec(rng *rand.Rand, n int) []complex64 {
	v := make([]complex64, n)
	for i := range v {
		v[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	return v
}

// Mat returns an m×n matrix of iid standard complex Gaussian entries —
// the incompressible worst case for TLR (tile ranks stay full).
func Mat(rng *rand.Rand, m, n int) *dense.Matrix {
	return dense.Random(rng, m, n)
}

// DecayMat returns an m×n matrix whose singular values decay as decay^k —
// the data-sparse regime of Hilbert-sorted seismic frequency matrices
// where TLR compression pays off.
func DecayMat(rng *rand.Rand, m, n int, decay float64) *dense.Matrix {
	return dense.RandomDecay(rng, m, n, decay)
}

// Eye returns the n×n identity: the best-conditioned operator a solver
// test can start from.
func Eye(n int) *dense.Matrix {
	a := dense.New(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	return a
}

// HilbertMat returns the m×n complex Hilbert-like matrix
// A[i,j] = (1 + i·0.5) / (1 + i + j): deterministic (no rng), severely
// rank-deficient, and numerically classic — the canonical quickly-
// compressible test input.
func HilbertMat(m, n int) *dense.Matrix {
	a := dense.New(m, n)
	for j := 0; j < n; j++ {
		col := a.Col(j)
		for i := range col {
			d := float32(1 + i + j)
			col[i] = complex(1/d, 0.5/d)
		}
	}
	return a
}

var (
	seismicOnce sync.Once
	seismicDS   *seismic.Dataset
	seismicErr  error
)

// seismicDataset synthesizes (once per process) a small survey whose
// frequency matrices have the physical structure of the paper's kernels:
// Green's-function phase fronts plus the free-surface multiple series.
func seismicDataset() (*seismic.Dataset, error) {
	seismicOnce.Do(func() {
		seismicDS, seismicErr = seismic.Generate(seismic.Options{
			Geom: seismic.Geometry{
				NsX: 8, NsY: 6, NrX: 7, NrY: 5,
				Dx: 20, Dy: 20, SrcDepth: 10, RecDepth: 300,
			},
			Nt: 128, Dt: 0.004,
		})
	})
	return seismicDS, seismicErr
}

// SeismicSlice returns one synthetic seismic frequency matrix
// (sources × seafloor points) from the cached laptop-scale survey.
// f indexes the in-band frequencies modulo the band size, so any
// nonnegative value is valid. The returned matrix is a copy.
func SeismicSlice(f int) (*dense.Matrix, error) {
	ds, err := seismicDataset()
	if err != nil {
		return nil, err
	}
	return ds.K[f%len(ds.K)].Clone(), nil
}

// SeismicBand returns nf consecutive frequency matrices from the cached
// survey (copies), for multi-frequency kernel tests.
func SeismicBand(nf int) ([]*dense.Matrix, error) {
	ds, err := seismicDataset()
	if err != nil {
		return nil, err
	}
	if nf > len(ds.K) {
		nf = len(ds.K)
	}
	out := make([]*dense.Matrix, nf)
	for i := 0; i < nf; i++ {
		out[i] = ds.K[i].Clone()
	}
	return out, nil
}
