package mdd

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/lsqr"
	"repro/internal/mdc"
	"repro/internal/seismic"
	"repro/internal/sfc"
	"repro/internal/testkit"
	"repro/internal/testkit/suite"
	"repro/internal/tlr"
)

func testDataset(t testing.TB) *seismic.Dataset {
	t.Helper()
	ds, err := seismic.Generate(seismic.Options{
		Geom: seismic.Geometry{
			NsX: 6, NsY: 4, NrX: 5, NrY: 3,
			Dx: 20, Dy: 20, SrcDepth: 10, RecDepth: 300,
		},
		Nt: 128,
		Dt: 0.004,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return ds
}

func denseProblem(t testing.TB, ds *seismic.Dataset) *Problem {
	t.Helper()
	dk, err := mdc.NewDenseKernel(ds.K)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(ds, dk)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewProblemValidation(t *testing.T) {
	ds := testDataset(t)
	dk, _ := mdc.NewDenseKernel(ds.K[:2]) // wrong frequency count
	if _, err := NewProblem(ds, dk); err == nil {
		t.Error("frequency mismatch should error")
	}
}

func TestInversionRecoversTruth(t *testing.T) {
	// The headline behaviour of Fig. 11: LSQR inversion of the dense
	// kernel recovers the ground-truth reflectivity far better than the
	// adjoint (cross-correlation) estimate.
	ds := testDataset(t)
	p := denseProblem(t, ds)
	vs := 7
	sol, err := p.Invert(vs, lsqr.Options{MaxIters: 60})
	if err != nil {
		t.Fatal(err)
	}
	invNMSE := p.NMSEAgainstTruth(sol.X, vs)
	if invNMSE > 0.05 {
		t.Errorf("inversion NMSE %g too high", invNMSE)
	}
	adj := p.Adjoint(vs)
	// normalize the adjoint for a fair comparison: scale to minimize NMSE
	adjScaled := bestScale(adj, p.TrueReflectivity(vs))
	adjNMSE := p.NMSEAgainstTruth(adjScaled, vs)
	if adjNMSE < invNMSE*2 {
		t.Errorf("adjoint (NMSE %g) unexpectedly competitive with inversion (%g)", adjNMSE, invNMSE)
	}
}

// bestScale returns a·x with the least-squares optimal complex scalar a
// against reference b.
func bestScale(x, b []complex64) []complex64 {
	var num, den complex128
	for i := range x {
		xc := complex128(x[i])
		num += complex128(complex(real(x[i]), -imag(x[i]))) * complex128(b[i])
		den += complex128(complex(real(x[i]), -imag(x[i]))) * xc
	}
	if den == 0 {
		return x
	}
	a := complex64(num / den)
	out := make([]complex64, len(x))
	for i := range x {
		out[i] = a * x[i]
	}
	return out
}

func TestTLRInversionMatchesDense(t *testing.T) {
	// Compressing the kernel at tight tolerance must not change the MDD
	// result materially — the paper's central accuracy claim.
	ds := testDataset(t)
	dsH, _ := ds.Reorder(sfc.Hilbert)
	pDense := denseProblem(t, dsH)
	dk, _ := mdc.NewDenseKernel(dsH.K)
	tk, err := mdc.CompressKernel(dk, tlr.Options{NB: 8, Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	pTLR, err := NewProblem(dsH, tk)
	if err != nil {
		t.Fatal(err)
	}
	vs := 4
	solD, err := pDense.Invert(vs, lsqr.Options{MaxIters: 40})
	if err != nil {
		t.Fatal(err)
	}
	solT, err := pTLR.Invert(vs, lsqr.Options{MaxIters: 40})
	if err != nil {
		t.Fatal(err)
	}
	nmseD := pDense.NMSEAgainstTruth(solD.X, vs)
	nmseT := pTLR.NMSEAgainstTruth(solT.X, vs)
	if nmseT > nmseD+0.02 {
		t.Errorf("TLR inversion NMSE %g much worse than dense %g", nmseT, nmseD)
	}
}

func TestLooserToleranceDegradesSolution(t *testing.T) {
	// Fig. 12's black curves: NMSE grows as acc loosens.
	ds := testDataset(t)
	dsH, _ := ds.Reorder(sfc.Hilbert)
	dk, _ := mdc.NewDenseKernel(dsH.K)
	vs := 4
	var prev float64 = -1
	for _, acc := range []float64{1e-5, 1e-2, 1e-1} {
		tk, err := mdc.CompressKernel(dk, tlr.Options{NB: 8, Tol: acc})
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProblem(dsH, tk)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := p.Invert(vs, lsqr.Options{MaxIters: 40})
		if err != nil {
			t.Fatal(err)
		}
		nmse := p.NMSEAgainstTruth(sol.X, vs)
		if prev >= 0 && nmse < prev*0.5 {
			t.Errorf("acc=%g: NMSE %g dropped sharply from %g — wrong trend", acc, nmse, prev)
		}
		prev = nmse
	}
}

func TestInvertLineParallelMatchesSequential(t *testing.T) {
	suite.VerifyNoLeaks(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ds := testDataset(t)
	p := denseProblem(t, ds)
	vss := []int{0, 3, 7, 11}
	opts := lsqr.Options{MaxIters: 15}
	sols, err := p.InvertLine(vss, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, vs := range vss {
		ref, err := p.Invert(vs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if sols[i].VS != vs {
			t.Fatalf("solution %d has VS %d", i, sols[i].VS)
		}
		if seismic.NMSE(sols[i].X, ref.X) > 1e-8 {
			t.Errorf("parallel solution %d differs from sequential", i)
		}
	}
}

func TestDataAssembly(t *testing.T) {
	ds := testDataset(t)
	p := denseProblem(t, ds)
	vs := 2
	y := p.Data(vs)
	ns := ds.Geom.NumSources()
	for f := 0; f < ds.NumFreqs(); f++ {
		for s := 0; s < ns; s++ {
			if y[f*ns+s] != ds.Pminus[f].At(vs, s) {
				t.Fatal("Data assembly wrong")
			}
		}
	}
}

func TestGatherShape(t *testing.T) {
	ds := testDataset(t)
	p := denseProblem(t, ds)
	g := p.Gather(p.TrueReflectivity(0))
	if g.NumTraces() != ds.Geom.NumReceivers() {
		t.Fatalf("gather has %d traces", g.NumTraces())
	}
	if len(g.Traces[0]) != ds.Nt {
		t.Fatalf("trace length %d", len(g.Traces[0]))
	}
	if g.Energy() == 0 {
		t.Error("empty reflectivity gather")
	}
}

func TestAdjointNonZero(t *testing.T) {
	ds := testDataset(t)
	p := denseProblem(t, ds)
	adj := p.Adjoint(5)
	var nz bool
	for _, v := range adj {
		if v != 0 {
			nz = true
			break
		}
	}
	if !nz {
		t.Error("adjoint estimate identically zero")
	}
}

func BenchmarkInvertSingleVS30Iters(b *testing.B) {
	ds := testDataset(b)
	p := denseProblem(b, ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = p.Invert(7, lsqr.Options{MaxIters: 30, ATol: 1e-16, BTol: 1e-16})
	}
}

func TestTimeDomainMDDMatchesFrequencyDomain(t *testing.T) {
	// the paper's headline: time-domain MDD (§6.2). Without extra
	// constraints the time- and frequency-domain solves are equivalent,
	// so LSQR over the literal Sᴴ K S operator (one FFT per channel on
	// each side of every product) cross-validates it against the
	// per-frequency route InvertTimeDomain takes.
	ds := testDataset(t)
	p := denseProblem(t, ds)
	vs := 7
	timeSolve := func(iters int) []complex64 {
		res, err := lsqr.Solve(p.TimeOperator(), p.TimeData(vs), lsqr.Options{MaxIters: iters})
		if err != nil {
			t.Fatal(err)
		}
		return res.X
	}

	// Early on the two float32 Krylov routes agree to rounding; they
	// drift apart after about 15 iterations (up to 5e-3 relDiff at 25).
	want := timeSolve(10)
	got, err := p.InvertTimeDomain(vs, lsqr.Options{MaxIters: 10})
	if err != nil {
		t.Fatal(err)
	}
	d := testkit.RelErr(got.X, want)
	t.Logf("10 iterations: relDiff %.3g", d)
	if d > 1e-5 {
		t.Errorf("10 iterations: InvertTimeDomain vs LSQR over TimeOperator: relDiff %g", d)
	}

	fSol, err := p.Invert(vs, lsqr.Options{MaxIters: 25})
	if err != nil {
		t.Fatal(err)
	}
	// compare on the frequency grid
	tPanels := p.TimeSolutionPanels(&TimeSolution{VS: vs, X: timeSolve(25)})
	if nm := seismic.NMSE(tPanels, fSol.X); nm > 5e-3 {
		t.Errorf("time- vs frequency-domain solutions differ: NMSE %g", nm)
	}
	// and both should be close to the truth
	if nm := p.NMSEAgainstTruth(tPanels, vs); nm > 0.1 {
		t.Errorf("time-domain solution NMSE vs truth %g", nm)
	}
}

func TestInvertTimeDomainIsFrequencySolvePlusSynthesis(t *testing.T) {
	// InvertTimeDomain is Invert followed by one synthesis of the panels,
	// bit for bit, on the dense kernel and on a TLR one.
	ds := testDataset(t)
	dense := denseProblem(t, ds)
	tk, err := mdc.CompressKernel(dense.K.(*mdc.DenseKernel), tlr.Options{NB: 4, Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	compressed, err := NewProblem(ds, tk)
	if err != nil {
		t.Fatal(err)
	}
	nr := ds.Geom.NumReceivers()
	opts := lsqr.Options{MaxIters: 12}
	for _, c := range []struct {
		name string
		p    *Problem
	}{{"dense", dense}, {"tlr", compressed}} {
		name, p := c.name, c.p
		for _, vs := range []int{0, 7} {
			fSol, err := p.Invert(vs, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]complex64, nr*ds.Nt)
			p.TimeOperator().SynthesizeTime(fSol.X, want, nr)
			tSol, err := p.InvertTimeDomain(vs, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if tSol.X[i] != want[i] {
					t.Fatalf("%s vs %d: X[%d] = %v, want %v", name, vs, i, tSol.X[i], want[i])
				}
			}
			if &tSol.LSQR.X[0] != &tSol.X[0] {
				t.Errorf("%s vs %d: LSQR.X is not the time-domain X", name, vs)
			}
			if tSol.LSQR.Iters != fSol.LSQR.Iters {
				t.Errorf("%s vs %d: %d iterations, want %d", name, vs, tSol.LSQR.Iters, fSol.LSQR.Iters)
			}
			if !slices.Equal(tSol.LSQR.ResidualHistory, fSol.LSQR.ResidualHistory) {
				t.Errorf("%s vs %d: residual history %v, want %v", name, vs, tSol.LSQR.ResidualHistory, fSol.LSQR.ResidualHistory)
			}
		}
	}
}

func TestTimeDataRoundTrip(t *testing.T) {
	// AnalyzeTime(SynthesizeTime(y)) must be the identity on the band
	ds := testDataset(t)
	p := denseProblem(t, ds)
	y := p.Data(3)
	op := p.TimeOperator()
	ns := ds.Geom.NumSources()
	timeY := make([]complex64, ns*ds.Nt)
	op.SynthesizeTime(y, timeY, ns)
	back := make([]complex64, len(y))
	op.AnalyzeTime(timeY, back, ns)
	if nm := seismic.NMSE(back, y); nm > 1e-6 {
		t.Errorf("S∘Sᴴ not identity on the band: NMSE %g", nm)
	}
}
