package main

import (
	"math/rand"
	"time"

	"repro/internal/cfloat"
	"repro/internal/fft"
	"repro/internal/lsqr"
	"repro/internal/mdc"
	"repro/internal/mdd"
	"repro/internal/seismic"
	"repro/internal/sfc"
	"repro/internal/tlr"
)

// surveySpec sizes solve-survey: the paper's pipeline at laptop scale.
type surveySpec struct {
	geom   seismic.Geometry
	nt     int
	nb     int
	tol    float64
	iters  int
	solves int
}

func surveyGeometry(nsx, nsy, nrx, nry int) seismic.Geometry {
	return seismic.Geometry{NsX: nsx, NsY: nsy, NrX: nrx, NrY: nry, Dx: 20, Dy: 20, SrcDepth: 10, RecDepth: 300}
}

// surveyBuild is one pass of the pre-processing: synthesize, Hilbert
// reorder, TLR-compress, bind the MDD problem.
type surveyBuild struct {
	prob   *mdd.Problem
	kernel *mdc.TLRKernel

	generateS, reorderS, compressS float64
	denseBytes                     int64
}

func buildSurvey(geom seismic.Geometry, nt, nb int, tol float64) (*surveyBuild, error) {
	b := &surveyBuild{}
	t0 := time.Now()
	ds, err := seismic.Generate(seismic.Options{Geom: geom, Nt: nt, Dt: 0.004})
	if err != nil {
		return nil, err
	}
	b.generateS = time.Since(t0).Seconds()
	t0 = time.Now()
	hds, _ := ds.Reorder(sfc.Hilbert)
	b.reorderS = time.Since(t0).Seconds()
	dk, err := mdc.NewDenseKernel(hds.K)
	if err != nil {
		return nil, err
	}
	b.denseBytes = dk.Bytes()
	t0 = time.Now()
	if b.kernel, err = mdc.CompressKernel(dk, tlr.Options{NB: nb, Tol: tol}); err != nil {
		return nil, err
	}
	b.compressS = time.Since(t0).Seconds()
	b.prob, err = mdd.NewProblem(hds, b.kernel)
	return b, err
}

// refKernel is the reference route for a compressed kernel: the plain
// mdc.Kernel surface over the sequential AoS products, whatever the
// production TLRKernel dispatches to.
type refKernel struct{ mats []*tlr.Matrix }

func (k refKernel) NumFreqs() int { return len(k.mats) }
func (k refKernel) Rows() int     { return k.mats[0].M }
func (k refKernel) Cols() int     { return k.mats[0].N }
func (k refKernel) Bytes() int64  { return operatorBytes(k.mats) }

func (k refKernel) Apply(f int, x, y []complex64) { k.mats[f].MulVec(x, y) }

func (k refKernel) ApplyAdjoint(f int, x, y []complex64) { k.mats[f].MulVecConjTrans(x, y) }

func runSolveSurvey(cfg runConfig) (*runResult, error) {
	// 48 virtual sources fill 27 s; a solve takes about 0.55 s
	spec := surveySpec{geom: surveyGeometry(24, 16, 16, 12), nt: 256, nb: 24, tol: 1e-4,
		iters: 30, solves: unitCount(cfg.seconds, 1.8, 9, 48)}
	if cfg.smoke {
		spec = surveySpec{geom: surveyGeometry(6, 4, 4, 3), nt: 64, nb: 6, tol: 1e-4, iters: 8, solves: 6}
	}
	res := newRunResult()
	m := res.metrics

	b, setupS, err := setUp(cfg.setups(), func() (*surveyBuild, error) {
		return buildSurvey(spec.geom, spec.nt, spec.nb, spec.tol)
	}, func(*surveyBuild) {})
	if err != nil {
		return nil, err
	}
	prob := b.prob
	opBytes := b.kernel.Bytes()
	res.counts["operator_bytes"] = opBytes
	res.counts["freqs"] = int64(b.kernel.NumFreqs())
	res.counts["iters"] = int64(spec.iters)

	// The virtual sources, one solve each: receivers spaced evenly over
	// the (Hilbert-ordered) seafloor, solved in seeded order. The survey
	// has no random input, so the set is the same for every seed and the
	// accuracy medians are a function of the code alone: any change in
	// them is a change in the numerics, not in the draw.
	nr := spec.geom.NumReceivers()
	rng := rand.New(rand.NewSource(cfg.seed))
	vss := make([]int, spec.solves)
	for i, k := range rng.Perm(spec.solves) {
		vss[i] = k * nr / spec.solves
	}
	opts := lsqr.Options{MaxIters: spec.iters}
	var sols []*mdd.TimeSolution
	solve := func(i int) error {
		sol, err := prob.InvertTimeDomain(vss[i], opts)
		sols = append(sols, sol)
		return err
	}
	releaseMemory()

	var solveMs, tracedMs []float64
	var rec *recorder
	var tracedIters int
	if !cfg.trace {
		if err := measureSolves(m, setupS, spec.solves, solve); err != nil {
			return nil, err
		}
	} else {
		nTraced := max(1, spec.solves/3)
		var err error
		if solveMs, err = timeEach(spec.solves-nTraced, solve); err != nil {
			return nil, err
		}
		rec = newRecorder()
		// The traced solve is InvertTimeDomain spelled out — TimeData,
		// then lsqr.Solve over TimeOperator — so that the operator can be
		// wrapped; the kernel wrapper is swapped into a copy of the problem.
		tracedMs, err = timeEach(nTraced, func(i int) error {
			vs := vss[len(sols)]
			build := func(k mdc.Kernel) lsqr.Operator {
				return (&mdd.Problem{DS: prob.DS, K: k}).TimeOperator()
			}
			out, err := tracedSolve(rec, i+1, prob.K, build,
				func() []complex64 { return prob.TimeData(vs) }, nil, opts, nil)
			if err == nil {
				tracedIters += out.Iters
			}
			sols = append(sols, &mdd.TimeSolution{VS: vs, X: out.X, LSQR: out})
			return err
		})
		if err != nil {
			return nil, err
		}
	}

	// Checks. Every solve: the residual through the reference operator
	// (sequential AoS products on one worker) against LSQR's own estimate,
	// and the NMSE against the true reflectivity. Every fourth solve: a
	// full reference solve of the same virtual source — one costs more
	// than a measured solve, so checking all would double the run.
	refProb := &mdd.Problem{DS: prob.DS, K: refKernel{b.kernel.Mats}}
	relRes := make([]float64, len(sols))
	nmse := make([]float64, len(sols))
	fails := make([]string, len(sols))
	parallelFor(len(sols), 2, func(i int) {
		sol := sols[i]
		op := refProb.TimeOperator()
		op.Workers = 1
		y := refProb.TimeData(sol.VS)
		relRes[i] = relResidual(op, sol.X, y)
		nmse[i] = prob.NMSEAgainstTruth(prob.TimeSolutionPanels(sol), sol.VS)
		switch est := sol.LSQR.ResidualNorm / cfloat.Nrm2(y); {
		case sol.LSQR.Iters != spec.iters:
			fails[i] = "did not run the fixed iteration count"
		case !closeTo(relRes[i], est, 1e-2):
			fails[i] = "reference residual differs from LSQR's estimate"
		case !(nmse[i] < 1):
			fails[i] = "NMSE against the true reflectivity is not below 1"
		}
		if i%4 != 0 || fails[i] != "" {
			return
		}
		want, err := lsqr.Solve(op, y, opts)
		if err != nil {
			fails[i] = err.Error()
			return
		}
		wantNMSE := prob.NMSEAgainstTruth(prob.TimeSolutionPanels(&mdd.TimeSolution{X: want.X}), sol.VS)
		switch {
		case !(relDiff(sol.X, want.X) <= 1e-4):
			fails[i] = "solution differs from the AoS reference solve"
		case !closeTo(relRes[i], relResidual(op, want.X, y), 1e-3):
			fails[i] = "rel_residual differs from the reference solve's"
		case !closeTo(nmse[i], wantNMSE, 1e-3):
			fails[i] = "NMSE differs from the reference solve's"
		}
	})
	for i, f := range fails {
		res.attempted++
		if f != "" {
			res.fail("virtual source %d: %s", sols[i].VS, f)
		}
	}
	res.counts["solves"] = int64(len(sols))

	if !cfg.trace {
		m["rel_residual"] = median(relRes)
		m["inversion_nmse"] = median(nmse)
		return res, nil
	}

	// Per-layer metrics.
	res.spans = rec.snapshot()
	top := prob.TimeOperator()
	ns := spec.geom.NumSources()
	nf := b.kernel.NumFreqs()
	// One forward product analyzes nr channels and synthesizes ns; the
	// adjoint the reverse: timed directly on the operator's own stages.
	tbuf := make([]complex64, max(ns, nr)*spec.nt)
	fbuf := make([]complex64, nf*max(ns, nr))
	fftMs := 1e3 * timeReps(func() {
		top.AnalyzeTime(tbuf, fbuf, nr)
		top.SynthesizeTime(fbuf, tbuf, ns)
		top.AnalyzeTime(tbuf, fbuf, ns)
		top.SynthesizeTime(fbuf, tbuf, nr)
	})
	if err := fillSolveLayers(m, res, cfg.smoke, b.kernel.Mats, tracedIters, fftMs, tracedMs, solveMs); err != nil {
		return nil, err
	}
	m["solve_ms_p75"] = percentile(solveMs, 0.75)
	m["fft.transforms_per_apply"] = float64(ns + nr)
	plan := fft.NewPlan(spec.nt)
	line := make([]complex64, spec.nt)
	m["fft.forward64_us"] = 1e6 * timeReps(func() {
		for i := 0; i < 1000; i++ {
			plan.Forward64(line)
		}
	}) / 1000
	m["tlr.compress_s"] = b.compressS
	m["tlr.compression_ratio"] = float64(b.denseBytes) / float64(opBytes)
	m["seismic.generate_s"] = b.generateS
	m["seismic.reorder_s"] = b.reorderS
	x := make([]complex64, top.Cols())
	y := make([]complex64, top.Rows())
	one := prob.TimeOperator()
	one.Workers = 1
	m["mdc.workers1_ms"] = 1e3 * timeReps(func() { one.Apply(x, y) })
	return res, nil
}
