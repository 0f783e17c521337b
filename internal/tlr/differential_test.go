// Differential correctness tests: every TLR-MVM execution path against
// the dense reference and each other, via the shared testkit oracle.
// External test package: testkit imports tlr, so these live in tlr_test.
package tlr_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/cfloat"
	"repro/internal/dense"
	"repro/internal/opstore"
	"repro/internal/testkit"
	"repro/internal/tlr"
	"repro/internal/tlrio"
)

// TestDifferentialMatrixClasses runs the oracle over the matrix classes
// the paper exercises — incompressible Gaussian, rank-decaying,
// Hilbert-like, and a synthetic seismic frequency slice — across tile
// sizes and accuracy targets.
func TestDifferentialMatrixClasses(t *testing.T) {
	seismic, err := testkit.SeismicSlice(2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		a    *dense.Matrix
		nb   int
		tol  float64
	}{
		{"gaussian-40x40-nb10", testkit.Mat(testkit.NewRNG(101), 40, 40), 10, 1e-4},
		{"gaussian-37x29-ragged", testkit.Mat(testkit.NewRNG(102), 37, 29), 8, 1e-4},
		{"decay-48x48-nb12", testkit.DecayMat(testkit.NewRNG(103), 48, 48, 0.5), 12, 1e-3},
		{"hilbert-50x50-nb10", testkit.HilbertMat(50, 50), 10, 1e-5},
		{"seismic-slice-nb8", seismic, 8, 1e-4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, err := testkit.New(tc.a, testkit.Config{
				TLROpts: tlr.Options{NB: tc.nb, Tol: tc.tol},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := o.CompressionHolds(); err != nil {
				t.Fatal(err)
			}
			if err := o.Check(testkit.NewRNG(7), 3); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDifferentialCompressionMethods runs the oracle once per compressor
// backend: the bases differ, but every execution path must still agree
// with the dense reference within the acc-derived budget.
func TestDifferentialCompressionMethods(t *testing.T) {
	a := testkit.DecayMat(testkit.NewRNG(110), 40, 40, 0.6)
	for _, m := range []tlr.Method{tlr.MethodSVD, tlr.MethodRRQR} {
		t.Run(m.String(), func(t *testing.T) {
			o, err := testkit.New(a, testkit.Config{TLROpts: tlr.Options{NB: 10, Tol: 1e-3, Method: m}})
			if err != nil {
				t.Fatal(err)
			}
			if err := o.Check(testkit.NewRNG(8), 2); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTLRAdjointConsistency checks ⟨Ax, y⟩ ≈ ⟨x, Aᴴy⟩ directly on the
// compressed operator for every compression method — the property the
// LSQR/CGLS inversions rest on.
func TestTLRAdjointConsistency(t *testing.T) {
	a := testkit.DecayMat(testkit.NewRNG(130), 45, 35, 0.55)
	tm, err := tlr.Compress(a, tlr.Options{NB: 9, Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	op := tlrOperator{tm}
	if gap := testkit.AdjointGap(op, testkit.NewRNG(131), 5); gap > 1e-4 {
		t.Errorf("TLR adjoint gap %g", gap)
	}
}

type tlrOperator struct{ t *tlr.Matrix }

func (o tlrOperator) Rows() int                     { return o.t.M }
func (o tlrOperator) Cols() int                     { return o.t.N }
func (o tlrOperator) Apply(x, y []complex64)        { o.t.MulVec(x, y) }
func (o tlrOperator) ApplyAdjoint(x, y []complex64) { o.t.MulVecConjTrans(x, y) }

// literalMatrix assembles an m×n matrix with tile size nb by literal
// (the precision / tlrio / bench construction path: no Compress) with
// Gaussian factors of the given per-tile ranks.
func literalMatrix(rng *rand.Rand, m, n, nb int, rank func(i, j int) int) *tlr.Matrix {
	mt, nt := (m+nb-1)/nb, (n+nb-1)/nb
	tm := &tlr.Matrix{M: m, N: n, NB: nb, MT: mt, NT: nt, Tiles: make([]*tlr.Tile, mt*nt)}
	for i := 0; i < mt; i++ {
		rows := min((i+1)*nb, m) - i*nb
		for j := 0; j < nt; j++ {
			cols := min((j+1)*nb, n) - j*nb
			k := min(rank(i, j), rows, cols)
			tm.Tiles[i*nt+j] = &tlr.Tile{U: testkit.Mat(rng, rows, k), V: testkit.Mat(rng, cols, k)}
		}
	}
	return tm
}

// storeBackedTwin pages tm into memory and returns its out-of-core twin
// over a store whose budget admits only part of it, as opstore's
// TestStoreBackedMatchesInMemory does.
func storeBackedTwin(t *testing.T, tm *tlr.Matrix) *tlr.Matrix {
	t.Helper()
	var buf bytes.Buffer
	k := &tlrio.Kernel{Freqs: []float64{1}, Mats: []*tlr.Matrix{tm}}
	if err := tlrio.WritePaged(&buf, k, tlrio.PagedOptions{PageSize: 256}); err != nil {
		t.Fatal(err)
	}
	st, err := opstore.OpenBytes(buf.Bytes(), 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	ooc, err := st.Matrix(0)
	if err != nil {
		t.Fatal(err)
	}
	return ooc
}

// TestBatchedMatchesSequentialAcrossShapes drives the four MulVec*
// products (it began as the MulVecBatched-only shape sweep and keeps the
// name) over the degenerate tile-grid shapes: MulVec and MulVecConjTrans
// must equal the three-phase schedule bit for bit, in memory and
// store-backed, and satisfy the adjoint identity, the row-fused
// step and normal pass must reproduce their compositions bit for bit,
// and MulVecBatched, a forward kept for the frozen benchmark, must be
// MulVec bit for bit at every worker count.
func TestBatchedMatchesSequentialAcrossShapes(t *testing.T) {
	mixed := func(i, j int) int { return 1 + (i+2*j)%5 }
	ragged := func(i, j int) int { return 1 + (i+j)%8 }
	cases := []struct {
		name     string
		m, n, nb int
		rank     func(i, j int) int
		stored   bool
	}{
		{"single-tile", 10, 7, 16, mixed, false},
		{"one-tile-row", 12, 40, 16, mixed, false},
		{"one-tile-col", 40, 12, 16, mixed, false},
		{"ragged-last-row-and-col", 203, 171, 16, ragged, false},
		{"zero-rank-row-and-col", 30, 27, 8, func(i, j int) int {
			if i == 1 || j == 2 {
				return 0
			}
			return mixed(i, j)
		}, false},
		// whole tile rows and columns of rank zero: their output blocks
		// must still be cleared
		{"zero-rank-panels-parallel", 203, 171, 16, func(i, j int) int {
			if i%5 == 1 || j%4 == 2 {
				return 0
			}
			return ragged(i, j)
		}, false},
		{"store-backed", 203, 171, 16, ragged, true},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := testkit.NewRNG(int64(140 + ci))
			tm := literalMatrix(rng, tc.m, tc.n, tc.nb, tc.rank)
			x, xa := testkit.Vec(rng, tc.n), testkit.Vec(rng, tc.m)
			want, wantA := make([]complex64, tc.m), make([]complex64, tc.n)
			threePhase(tm, false, x, want)
			threePhase(tm, true, xa, wantA)
			if tc.stored {
				tm = storeBackedTwin(t, tm)
			}

			// dirty outputs: every block must be written
			ref, refA := testkit.Vec(rng, tc.m), testkit.Vec(rng, tc.n)
			tm.MulVec(x, ref)
			tm.MulVecConjTrans(xa, refA)
			if d := max(testkit.MaxULPDist(ref, want), testkit.MaxULPDist(refA, wantA)); d != 0 {
				t.Errorf("MulVec / MulVecConjTrans %d ULPs from the three-phase schedule", d)
			}

			for _, workers := range []int{1, 2, 4, 8} {
				bat := testkit.Vec(rng, tc.m)
				if err := tm.MulVecBatched(x, bat, workers); err != nil {
					t.Fatal(err)
				}
				if d := testkit.MaxULPDist(bat, ref); d != 0 {
					t.Errorf("MulVecBatched at %d workers: %d ULPs from MulVec", workers, d)
				}
			}

			comp, fused := make([]complex64, tc.n), testkit.Vec(rng, tc.n)
			tm.MulVecConjTrans(ref, comp)
			tm.MulVecNormal(x, fused)
			if d := testkit.MaxULPDist(fused, comp); d != 0 {
				t.Errorf("MulVecNormal %d ULPs from MulVecConjTrans∘MulVec", d)
			}
			// the step at a non-unit scale, dirty outputs: every block of w
			// and z must be written
			w, z := testkit.Vec(rng, tc.m), testkit.Vec(rng, tc.n)
			tm.MulVecStep(x, 0.5, 0.75, xa, w, z)
			cfloat.Scal(0.5, ref)
			cfloat.ScaleSub(1, ref, 0.75, xa)
			tm.MulVecConjTrans(ref, comp)
			if d := max(testkit.MaxULPDist(w, ref), testkit.MaxULPDist(z, comp)); d != 0 {
				t.Errorf("MulVecStep %d ULPs from MulVec → scale → subtract → MulVecConjTrans", d)
			}

			if gap := testkit.AdjointGap(tlrOperator{tm}, rng, 3); gap > 1e-4 {
				t.Errorf("adjoint gap %g", gap)
			}
		})
	}
}
