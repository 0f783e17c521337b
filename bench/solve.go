package main

import (
	"time"

	"repro/internal/lsqr"
	"repro/internal/mdc"
	"repro/internal/tlr"
)

// Span names of a traced solve, outermost first. A solve is one unit:
//
//	solve              the whole right-hand side, what solve_ms times
//	├─ mdd.rhs         building the right-hand side (solve-survey only)
//	└─ lsqr.solve      lsqr.Solve
//	   └─ mdc.apply / mdc.adjoint     one operator product
//	      └─ tlr.apply / tlr.adjoint  one per-frequency kernel product
const (
	spanSolve = "solve"
	spanRHS   = "mdd.rhs"
	spanLSQR  = "lsqr.solve"
)

// unitCount turns the --seconds argument into a fixed amount of work:
// perSecond units (solves, job blocks) for every second, at least lo and
// at most hi. The rates were sized on a 2-vCPU host so that the measured
// loop takes about --seconds there. Fixed work, not a fixed window: both
// sides of a comparison solve the same right-hand sides, and the counts
// and accuracy metrics of a seed repeat exactly whatever the host's
// speed.
func unitCount(seconds, perSecond float64, lo, hi int) int {
	return min(max(int(seconds*perSecond), lo), hi)
}

// timeEach calls one(0..n-1) and returns the wall time of each call in
// milliseconds.
func timeEach(n int, one func(i int) error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := one(i); err != nil {
			return out, err
		}
		out = append(out, ms(time.Since(t0)))
	}
	return out, nil
}

// measureSolves is the untraced measured loop of the solve-* workloads:
// n solves one after another under the resident-set sampler. It writes
// the timing and memory metrics the three share.
func measureSolves(m metrics, setupS []float64, n int, one func(i int) error) error {
	sampler, err := startRSSSampler()
	if err != nil {
		return err
	}
	start := time.Now()
	solveMs, err := timeEach(n, one)
	window := time.Since(start).Seconds()
	m["peak_rss_mb"] = sampler.Stop()
	if err != nil {
		return err
	}
	m["setup_s"] = median(setupS)
	m["solve_ms_p50"] = median(solveMs)
	m["jobs_per_s"] = float64(n) / window
	return nil
}

// tracedSolve runs lsqr.Solve through the timing wrappers: the operator
// is rebuilt by build around the wrapped kernel, so the traced route is
// the untraced route plus the span bookkeeping. rhs, when non-nil,
// builds the right-hand side inside the solve span; afterProduct, when
// non-nil, runs after every operator product, outside its span.
func tracedSolve(rec *recorder, unit int, kernel mdc.Kernel, build func(mdc.Kernel) lsqr.Operator,
	rhs func() []complex64, b []complex64, opts lsqr.Options, afterProduct func()) (*lsqr.Result, error) {
	rec.unit.Store(int64(unit))
	root := rec.begin(spanSolve, 0)
	defer rec.end(root)
	if rhs != nil {
		id := rec.begin(spanRHS, root)
		b = rhs()
		rec.end(id)
	}
	id := rec.begin(spanLSQR, root)
	defer rec.end(id)
	return lsqr.Solve(&tracedOperator{inner: build(wrapKernel(kernel, rec)), rec: rec, solve: id, after: afterProduct}, b, opts)
}

// attribution splits the wall time of the traced solves over the layers.
// A layer's self time is its span minus the union of its child spans.
type attribution struct {
	total     time.Duration // Σ solve spans
	rhs       time.Duration // Σ mdd.rhs
	lsqrTotal time.Duration // Σ lsqr.solve
	opBusy    time.Duration // part of lsqr.solve covered by operator products
	tlrBusy   time.Duration // part of the operator products covered by kernel products
	applyMs   []float64
	adjointMs []float64
	tlrCalls  int
	solves    int
}

func attribute(spans []span) attribution {
	var a attribution
	kids := childrenOf(spans)
	for _, s := range spans {
		switch s.Name {
		case spanSolve:
			a.solves++
			a.total += s.dur()
		case spanRHS:
			a.rhs += s.dur()
		case spanLSQR:
			a.lsqrTotal += s.dur()
			a.opBusy += coveredBy(s, kids[s.ID])
		case "mdc.apply", "mdc.adjoint":
			a.tlrBusy += coveredBy(s, kids[s.ID])
			a.tlrCalls += len(kids[s.ID])
			if s.Name == "mdc.apply" {
				a.applyMs = append(a.applyMs, float64(s.dur())/1e6)
			} else {
				a.adjointMs = append(a.adjointMs, float64(s.dur())/1e6)
			}
		}
	}
	return a
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// fill writes the per-layer metrics that come from the spans. iters is
// the number of LSQR iterations the traced solves ran in all; fftMs the
// directly timed FFT work of one forward plus one adjoint product (0
// where the operator has no FFT).
func (a attribution) fill(m metrics, iters int, fftMs float64) {
	if a.total == 0 || iters == 0 {
		return
	}
	n, solves := float64(iters), a.solves
	pct := func(d time.Duration) float64 { return 100 * float64(d) / float64(a.total) }
	// The FFT runs inside the operator product, outside the kernel
	// spans; it is timed directly and taken out of the operator's self
	// time, capped by it.
	mdcSelf := a.opBusy - a.tlrBusy
	fft := min(time.Duration(fftMs*1e6*n), mdcSelf)
	mdcSelf -= fft
	lsqrSelf := a.lsqrTotal - a.opBusy

	m["tlr.calls"] = float64(a.tlrCalls)
	m["tlr.busy_ms_per_iter"] = ms(a.tlrBusy) / n
	m["tlr.busy_pct"] = pct(a.tlrBusy)
	m["mdc.calls"] = float64(len(a.applyMs) + len(a.adjointMs))
	m["mdc.apply_ms_p50"] = median(a.applyMs)
	m["mdc.adjoint_ms_p50"] = median(a.adjointMs)
	m["mdc.self_ms_per_iter"] = ms(mdcSelf) / n
	m["mdc.self_pct"] = pct(mdcSelf)
	if fftMs > 0 {
		m["mdc.fft_ms_per_iter"] = ms(fft) / n
		m["fft.pct"] = pct(fft)
	}
	m["lsqr.iters"] = n
	m["lsqr.self_ms_per_iter"] = ms(lsqrSelf) / n
	m["lsqr.self_share"] = pct(lsqrSelf)
	if a.rhs > 0 {
		m["mdd.rhs_build_ms"] = ms(a.rhs) / float64(solves)
		m["mdd.rhs_build_pct"] = pct(a.rhs)
	}
	m["mdd.unattributed_pct"] = pct(a.total - a.rhs - a.lsqrTotal)
}

// timeReps calls fn until 200 ms have passed (at least three times) and
// returns the median seconds per call.
func timeReps(fn func()) float64 {
	var secs []float64
	start := time.Now()
	for len(secs) < 3 || time.Since(start) < 200*time.Millisecond {
		t0 := time.Now()
		fn()
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs)
}

// probeTLR calls every public product of one in-memory matrix directly
// and reports computed GB/s (tlr.Matrix.ByteCount: every base read once,
// the vectors and the intermediate once or twice; cache misses are not
// counted). The matrix is the operator's mid-band slice.
func probeTLR(m metrics, t *tlr.Matrix) error {
	x := make([]complex64, max(t.M, t.N))
	y := make([]complex64, max(t.M, t.N))
	for i := range x {
		x[i] = complex(float32(i%7)-3, float32(i%5)-2)
	}
	gb := float64(t.ByteCount()) / 1e9
	m["tlr.mulvec.gbps"] = gb / timeReps(func() { t.MulVec(x, y) })
	m["tlr.mulvec_adj.gbps"] = gb / timeReps(func() { t.MulVecConjTrans(x, y) })
	t.EnsureSoA()
	m["tlr.soa.gbps"] = gb / timeReps(func() { t.MulVecSoA(x, y) })
	m["tlr.soa_adj.gbps"] = gb / timeReps(func() { t.MulVecConjTransSoA(x, y) })
	var berr error
	m["tlr.batched.gbps"] = gb / timeReps(func() {
		if err := t.MulVecBatched(x, y, 0); err != nil {
			berr = err
		}
	})
	// the fused AᴴA pass reads U once and V twice; ByteCount is kept as
	// the common numerator so the six rates compare
	m["tlr.normal.gbps"] = gb / timeReps(func() { t.MulVecNormal(x[:t.N], y[:t.N]) })
	// 8 flops per complex multiply-add over 8-byte elements: the flop
	// count of one product equals its compressed bytes
	m["tlr.flops_per_byte"] = float64(t.CompressedBytes()) / float64(t.ByteCount())
	return berr
}

// fillSolveLayers writes the per-layer metrics every traced solve-* run
// reports: the host denominators, the attribution of the traced solves,
// the tracing overhead, the operator's size and route bandwidth, and the
// direct kernel probes on the mid-band slice of mats (in-memory tiles).
func fillSolveLayers(m metrics, res *runResult, smoke bool, mats []*tlr.Matrix,
	tracedIters int, fftMs float64, tracedMs, untracedMs []float64) error {
	hostProbe(m, smoke)
	a := attribute(res.spans)
	a.fill(m, tracedIters, fftMs)
	m["trace.spans"] = float64(len(res.spans))
	m["trace.overhead_pct"] = 100 * (median(tracedMs)/median(untracedMs) - 1)
	m["failed_share"] = float64(res.failed) / float64(res.attempted)
	// every operator product runs one kernel product per frequency
	var sweepBytes int64
	for _, t := range mats {
		sweepBytes += t.ByteCount()
	}
	fillOperatorSize(m, operatorBytes(mats), float64(sweepBytes)*m["mdc.calls"], a.tlrBusy)
	return probeTLR(m, mats[len(mats)/2])
}

// fillOperatorSize writes the operator's footprint against the cache and
// the production route's computed bandwidth against the triad at the
// matching footprint. routeBytes is the computed traffic of all kernel
// products of the traced solves.
func fillOperatorSize(m metrics, opBytes int64, routeBytes float64, tlrBusy time.Duration) {
	llc := m["host.llc_bytes"]
	m["tlr.operator_bytes"] = float64(opBytes)
	m["tlr.operator_over_llc_x"] = float64(opBytes) / llc
	if tlrBusy <= 0 {
		return
	}
	m["tlr.route.gbps"] = routeBytes / tlrBusy.Seconds() / 1e9
	triad := m["host.triad_gbps.cache"]
	if float64(opBytes) > llc {
		triad = m["host.triad_gbps.dram"]
	}
	m["tlr.bw_frac"] = m["tlr.route.gbps"] / triad
}
