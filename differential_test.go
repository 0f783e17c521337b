// Cross-module differential tests: the testkit oracle driven end to end
// over the paper's pipeline — synthesize, Hilbert-reorder, compress,
// then require every execution path of the stack (dense, TLR sequential/
// parallel/batched, MDC operator, wsesim PE simulation, reduced-precision
// storage) to agree within precision-derived budgets, and the solvers to
// recover the same answer through compressed and dense kernels.
package repro

import (
	"testing"

	"repro/internal/cgls"
	"repro/internal/lsqr"
	"repro/internal/mdc"
	"repro/internal/precision"
	"repro/internal/seismic"
	"repro/internal/sfc"
	"repro/internal/testkit"
	"repro/internal/tlr"
)

// TestDifferentialOracleFullStack runs the oracle on Hilbert-reordered
// seismic frequency slices — the exact matrix class the paper compresses
// — with a reduced-precision leg.
func TestDifferentialOracleFullStack(t *testing.T) {
	ds, err := seismic.Generate(seismic.Options{
		Geom: seismic.Geometry{
			NsX: 8, NsY: 6, NrX: 7, NrY: 5,
			Dx: 20, Dy: 20, SrcDepth: 10, RecDepth: 300,
		},
		Nt: 128, Dt: 0.004,
	})
	if err != nil {
		t.Fatal(err)
	}
	hds, _ := ds.Reorder(sfc.Hilbert)
	for _, f := range []int{0, len(hds.K) / 2} {
		o, err := testkit.New(hds.K[f], testkit.Config{
			TLROpts: tlr.Options{NB: 8, Tol: 1e-4},
			Format:  precision.FP16,
		})
		if err != nil {
			t.Fatalf("freq %d: %v", f, err)
		}
		if err := o.CompressionHolds(); err != nil {
			t.Fatalf("freq %d: %v", f, err)
		}
		if err := o.Check(testkit.NewRNG(int64(200+f)), 2); err != nil {
			t.Fatalf("freq %d: %v", f, err)
		}
	}
}

// TestDifferentialSolversThroughCompressedKernel: LSQR and CGLS solving
// the same consistent system through the TLR-backed MDC operator must
// agree with each other and with the planted solution — numerical-drift
// coverage for the whole inversion path.
func TestDifferentialSolversThroughCompressedKernel(t *testing.T) {
	mats, err := testkit.SeismicBand(3)
	if err != nil {
		t.Fatal(err)
	}
	dk, err := mdc.NewDenseKernel(mats)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := mdc.CompressKernel(dk, tlr.Options{NB: 8, Tol: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	op := &mdc.FreqOperator{K: tk}
	rng := testkit.NewRNG(210)
	xTrue := testkit.Vec(rng, op.Cols())
	b := make([]complex64, op.Rows())
	op.Apply(xTrue, b)
	rl, err := lsqr.Solve(op, b, lsqr.Options{MaxIters: 200, ATol: 1e-10, BTol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := cgls.Solve(op, b, cgls.Options{MaxIters: 200, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	// LSQR and CGLS are the same Krylov iteration in exact arithmetic;
	// in float32 on an ill-conditioned kernel the iterates drift apart
	// in near-null-space directions, so only coarse agreement holds —
	// the residual checks below are the sharp contract.
	if e := testkit.RelErr(rl.X, rc.X); e > 0.15 {
		t.Errorf("LSQR and CGLS disagree through the TLR kernel: %g", e)
	}
	// the residuals, not the iterates, are the solver contract on an
	// ill-conditioned operator: both must fit the data they were given
	rOf := func(x []complex64) float64 {
		y := make([]complex64, op.Rows())
		op.Apply(x, y)
		return testkit.RelErr(y, b)
	}
	if r := rOf(rl.X); r > 1e-3 {
		t.Errorf("LSQR residual through TLR kernel: %g", r)
	}
	if r := rOf(rc.X); r > 1e-3 {
		t.Errorf("CGLS residual through TLR kernel: %g", r)
	}
}

// TestHilbertReorderCommutesWithMVM: permuting rows/columns before the
// product and un-permuting after must reproduce the natural-order MVM —
// the identity the whole reordering pipeline assumes (§6.1).
func TestHilbertReorderCommutesWithMVM(t *testing.T) {
	rng := testkit.NewRNG(220)
	nx, ny := 6, 5
	m := nx * ny
	n := 24
	a := testkit.Mat(rng, m, n)
	perm := sfc.Permutation(sfc.GridPoints(nx, ny), sfc.Hilbert)
	ar := testkit.Mat(testkit.NewRNG(0), m, n) // shape holder, overwritten
	copy(ar.Data, sfc.ApplyRows(a.Data, m, n, perm))
	x := testkit.Vec(rng, n)
	want := make([]complex64, m)
	a.MulVec(x, want)
	got := make([]complex64, m)
	ar.MulVec(x, got)
	back := sfc.ApplyRows(got, m, 1, sfc.Inverse(perm))
	if d := testkit.MaxULPDist(back, want); d != 0 {
		t.Fatalf("reorder/unpermute changed the product by %d ULPs", d)
	}
}
