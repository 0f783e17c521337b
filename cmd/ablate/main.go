// Command ablate runs the design-choice ablations DESIGN.md calls out:
//
//	-shuffle     three-phase (BSP, shuffle over the fabric) vs the
//	             communication-avoiding layout of §5.3
//	-strategies  strong-scaling strategy 1 vs 2 at matched scale (§6.7)
//	-precision   FP32 vs FP16 vs bfloat16 base storage ([23, 24])
//	-mmm         TLR-MVM per shot vs fused TLR-MMM (§8 future work)
//	-compressors truncated SVD vs rank-revealing QR tile compression
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"time"

	"repro/internal/adaptive"
	"repro/internal/bsp"
	"repro/internal/cfloat"
	"repro/internal/cgls"
	"repro/internal/core"
	"repro/internal/cs2"
	"repro/internal/dense"
	"repro/internal/lsqr"
	"repro/internal/precision"
	"repro/internal/ranks"
	"repro/internal/seismic"
	"repro/internal/sfc"
	"repro/internal/tlr"
	"repro/internal/tlrmmm"
	"repro/internal/wse"
)

func shuffleAblation() {
	fmt.Println("== Ablation: three-phase (shuffle) vs communication-avoiding TLR-MVM ==")
	fmt.Println("(paper §5.3: the CS-2 port removes the shuffle phase that hurt the IPU port)")
	fmt.Printf("%4s %8s %6s %14s %16s %10s %14s\n",
		"nb", "acc", "sw", "3-phase (cyc)", "comm-avoid (cyc)", "speedup", "shuffle share")
	for _, c := range []struct {
		cfg ranks.Config
		sw  int
	}{
		{ranks.Config{NB: 25, Acc: 1e-4}, 64},
		{ranks.Config{NB: 50, Acc: 1e-4}, 32},
		{ranks.Config{NB: 70, Acc: 1e-4}, 23},
	} {
		d, err := ranks.New(c.cfg)
		if err != nil {
			log.Fatal(err)
		}
		cmp, err := bsp.Compare(d, c.sw, bsp.DefaultFabric())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%4d %8.0e %6d %14d %16d %9.2fx %13.1f%%\n",
			c.cfg.NB, c.cfg.Acc, c.sw, cmp.ThreePhase.Total(), cmp.CommAvoiding,
			cmp.Speedup, cmp.ShuffleShare*100)
	}
	fmt.Println()
}

func strategiesAblation() {
	fmt.Println("== Ablation: strong-scaling strategy 1 vs 2 at 48 systems (§6.7) ==")
	cfg := ranks.Config{NB: 25, Acc: 1e-4}
	d, err := ranks.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// strategy 1 must shrink the stack width to expose 48 systems' worth
	// of concurrency; strategy 2 keeps sw=64 and scatters MVMs
	s1sw := d.StackWidthFor(48 * cs2.UsablePEs)
	m1, err := wse.Plan{Dist: d, StackWidth: s1sw, Systems: 48, Strategy: wse.Strategy1}.Evaluate()
	if err != nil {
		log.Fatal(err)
	}
	m2, err := wse.Plan{Dist: d, StackWidth: 64, Systems: 48, Strategy: wse.Strategy2}.Evaluate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%10s %6s %12s %14s %16s %12s\n", "strategy", "sw", "PEs", "worst cycles", "rel BW (PB/s)", "base memory")
	fmt.Printf("%10d %6d %12d %14d %16.2f %11.0fx\n", 1, m1.StackWidth, m1.PEsUsed, m1.WorstCycles, m1.RelativeBW/1e15, m1.BaseReplication)
	fmt.Printf("%10d %6d %12d %14d %16.2f %11.0fx\n", 2, m2.StackWidth, m2.PEsUsed, m2.WorstCycles, m2.RelativeBW/1e15, m2.BaseReplication)
	fmt.Println("(strategy 1 loses arithmetic intensity at tiny stack widths; strategy 2 pays 2x base memory)")
	fmt.Println()
}

func precisionAblation() {
	fmt.Println("== Ablation: base storage precision (mixed-precision TLR, [23, 24]) ==")
	tm, k := demoMatrix()
	rng := rand.New(rand.NewSource(3))
	x := dense.Random(rng, k.Cols, 1).Data
	ref := make([]complex64, k.Rows)
	tm.MulVec(x, ref)
	fmt.Printf("%22s %12s %12s %14s\n", "policy", "bytes", "savings", "MVM rel error")
	policies := []struct {
		name string
		p    precision.Policy
	}{
		{"uniform fp32", precision.Uniform{F: precision.FP32}},
		{"uniform fp16", precision.Uniform{F: precision.FP16}},
		{"uniform bf16", precision.Uniform{F: precision.BF16}},
		{"band0.2 + fp16 tail", precision.DiagonalBand{Band: 0.2, Demoted: precision.FP16}},
	}
	for _, pc := range policies {
		q, err := precision.Quantize(tm, pc.p)
		if err != nil {
			log.Fatal(err)
		}
		y := make([]complex64, k.Rows)
		q.T.MulVec(x, y)
		diff := make([]complex64, k.Rows)
		for i := range diff {
			diff[i] = y[i] - ref[i]
		}
		fmt.Printf("%22s %12d %11.0f%% %14.2e\n",
			pc.name, q.StoredBytes, q.Savings()*100, cfloat.Nrm2(diff)/cfloat.Nrm2(ref))
	}
	fmt.Println()
}

func mmmAblation() {
	fmt.Println("== Ablation: per-shot TLR-MVM loop vs fused TLR-MMM (§8) ==")
	tm, k := demoMatrix()
	rng := rand.New(rand.NewSource(4))
	fmt.Printf("%7s %14s %14s %16s %16s\n", "shots", "naive time", "fused time", "naive AI (F/B)", "fused AI (F/B)")
	for _, shots := range []int{1, 8, 32, 128} {
		x := dense.Random(rng, k.Cols, shots)
		y := dense.New(k.Rows, shots)
		t0 := time.Now()
		if err := tlrmmm.MulMatNaive(tm, x, y); err != nil {
			log.Fatal(err)
		}
		tn := time.Since(t0)
		t0 = time.Now()
		if err := tlrmmm.MulMatFusedParallel(tm, x, y, 0); err != nil {
			log.Fatal(err)
		}
		tf := time.Since(t0)
		fmt.Printf("%7d %14s %14s %16.2f %16.2f\n", shots,
			tn.Round(time.Microsecond), tf.Round(time.Microsecond),
			tlrmmm.NaiveTraffic(tm, shots).Intensity,
			tlrmmm.FusedTraffic(tm, shots).Intensity)
	}
	// crossover on a CS-2: ridge = 1.7 PFlop/s / 20 PB/s = 0.085 flop/B
	if s := tlrmmm.CrossoverShots(tm, 20e15, 1.7e15); s > 0 {
		fmt.Printf("shots to leave the CS-2's memory-bound regime: %d\n", s)
	} else {
		fmt.Println("the fused schedule stays memory-bound on a CS-2 at any shot count")
	}
	fmt.Println()
}

// demoMatrix compresses one Hilbert-sorted frequency matrix of a mid-size
// survey.
func demoMatrix() (*tlr.Matrix, *dense.Matrix) {
	ds, err := seismic.Generate(seismic.Options{
		Geom: seismic.Geometry{
			NsX: 16, NsY: 10, NrX: 14, NrY: 8,
			Dx: 20, Dy: 20, SrcDepth: 10, RecDepth: 300,
		},
		Wavelet: seismic.FlatWavelet{Fmax: 30},
		Nt:      256, Dt: 0.004,
	})
	if err != nil {
		log.Fatal(err)
	}
	hds, _ := ds.Reorder(sfc.Hilbert)
	k := hds.K[hds.NumFreqs()/2]
	tm, err := tlr.Compress(k, tlr.Options{NB: 20, Tol: 1e-3})
	if err != nil {
		log.Fatal(err)
	}
	return tm, k
}

// compressorsAblation compares the two tile compressors, truncated SVD
// (production) and rank-revealing QR, on the highest in-band frequency
// matrix of the Hilbert-sorted survey opts describes, the hardest to
// compress. The paper also cites randomized SVD and adaptive cross
// approximation; EXPERIMENTS.md, "Retired compressors", has why they are
// not here.
func compressorsAblation(w io.Writer, opts seismic.Options) error {
	const nb, tol = 48, 1e-3
	ds, err := seismic.Generate(opts)
	if err != nil {
		return err
	}
	hds, _ := ds.Reorder(sfc.Hilbert)
	f := hds.NumFreqs() - 1
	k := hds.K[f]
	fmt.Fprintf(w, "== Ablation: tile compressors, nb=%d acc=%.0e ==\n", nb, tol)
	fmt.Fprintf(w, "frequency matrix %dx%d at %.1f Hz\n", k.Rows, k.Cols, hds.Freqs[f])
	fmt.Fprintf(w, "%8s %10s %10s %12s %16s %10s\n",
		"method", "max rank", "avg rank", "compression", "tiles within acc", "time")
	for _, method := range []tlr.Method{tlr.MethodSVD, tlr.MethodRRQR} {
		t0 := time.Now()
		tm, err := tlr.Compress(k, tlr.Options{NB: nb, Tol: tol, Method: method})
		if err != nil {
			return err
		}
		elapsed := time.Since(t0)
		// each tile against the accuracy it was compressed to
		rec, within := tm.Reconstruct(), 0
		for i := 0; i < tm.MT; i++ {
			for j := 0; j < tm.NT; j++ {
				i0, i1, j0, j1 := i*nb, min((i+1)*nb, k.Rows), j*nb, min((j+1)*nb, k.Cols)
				if dense.RelError(rec.Slice(i0, i1, j0, j1), k.Slice(i0, i1, j0, j1)) <= tol {
					within++
				}
			}
		}
		fmt.Fprintf(w, "%8v %10d %10.2f %11.2fx %16s %10s\n", method, tm.MaxRank(), tm.AvgRank(),
			tm.CompressionRatio(), fmt.Sprintf("%d/%d", within, len(tm.Tiles)), elapsed.Round(time.Millisecond))
	}
	fmt.Fprintln(w)
	return nil
}

func solversAblation(w io.Writer, opts seismic.Options) error {
	fmt.Fprintln(w, "== Ablation: LSQR vs CGLS on the MDD inversion ==")
	pipe, err := core.BuildPipeline(core.PipelineOptions{Dataset: opts, Dense: true})
	if err != nil {
		return err
	}
	prob := pipe.Problem
	vs := prob.DS.Geom.NumReceivers() / 2
	op := prob.Operator()
	y := prob.Data(vs)
	fmt.Fprintf(w, "%8s %8s %14s %14s %12s\n", "solver", "iters", "residual", "NMSE", "time")
	for _, iters := range []int{10, 30} {
		t0 := time.Now()
		rl, err := lsqr.Solve(op, y, lsqr.Options{MaxIters: iters, ATol: 1e-16, BTol: 1e-16})
		if err != nil {
			return err
		}
		tl := time.Since(t0)
		t0 = time.Now()
		rc, err := cgls.Solve(op, y, cgls.Options{MaxIters: iters, Tol: 1e-16})
		if err != nil {
			return err
		}
		tc := time.Since(t0)
		fmt.Fprintf(w, "%8s %8d %14.3e %14.4f %12s\n", "lsqr", rl.Iters, rl.ResidualNorm,
			prob.NMSEAgainstTruth(rl.X, vs), tl.Round(time.Millisecond))
		fmt.Fprintf(w, "%8s %8d %14.3e %14.4f %12s\n", "cgls", rc.Iters, rc.ResidualNorm,
			prob.NMSEAgainstTruth(rc.X, vs), tc.Round(time.Millisecond))
	}
	fmt.Fprintln(w)
	return nil
}

func demultipleAblation() {
	fmt.Println("== Ablation: MDD vs predict-and-subtract demultiple (§3 context) ==")
	ds, err := seismic.Generate(seismic.DemoOptions())
	if err != nil {
		log.Fatal(err)
	}
	g := ds.Geom
	r := g.ReceiverIndex(g.NrX/2, g.NrY/2)
	// upgoing zero-offset-ish trace for the nearest source
	sec := ds.ZeroOffsetSection(g.NrY/2, func(f, rr, ss int) complex64 {
		return ds.Pminus[f].At(rr, ss)
	})
	trace := sec.Traces[g.NrX/2]
	twt := 2 * g.RecDepth / ds.Model.WaterVel
	pred := adaptive.PredictWaterLayerMultiples(trace, twt, ds.Dt, ds.Model.WaterBottomRefl, 3)
	out, filt, err := adaptive.Subtract(trace, pred, 9, 1e-4)
	if err != nil {
		log.Fatal(err)
	}
	lateIdx := int(1.15 / ds.Dt)
	before := adaptive.EnergyRatio(trace[lateIdx:], trace[:lateIdx])
	after := adaptive.EnergyRatio(out[lateIdx:], out[:lateIdx])
	fmt.Printf("receiver %d: late/early energy %.4f → %.4f after predict+subtract (filter %d taps)\n",
		r, before, after, len(filt))
	fmt.Println("(MDD removes the same multiples implicitly by deconvolving p+ out of p-;")
	fmt.Println(" predict-and-subtract needs the multiple mechanism known a priori)")
	fmt.Println()
}

func main() {
	log.SetFlags(0)
	all := flag.Bool("all", false, "run every ablation")
	sh := flag.Bool("shuffle", false, "three-phase vs communication-avoiding")
	st := flag.Bool("strategies", false, "strategy 1 vs strategy 2")
	pr := flag.Bool("precision", false, "base storage precision")
	mm := flag.Bool("mmm", false, "TLR-MVM loop vs fused TLR-MMM")
	co := flag.Bool("compressors", false, "SVD vs RRQR tile compression")
	so := flag.Bool("solvers", false, "LSQR vs CGLS")
	dm := flag.Bool("demultiple", false, "MDD vs predict-and-subtract")
	flag.Parse()
	if !(*all || *sh || *st || *pr || *mm || *co || *so || *dm) {
		flag.Usage()
		os.Exit(2)
	}
	if *all || *sh {
		shuffleAblation()
	}
	if *all || *st {
		strategiesAblation()
	}
	if *all || *pr {
		precisionAblation()
	}
	if *all || *mm {
		mmmAblation()
	}
	if *all || *co {
		if err := compressorsAblation(os.Stdout, seismic.DemoOptions()); err != nil {
			log.Fatal(err)
		}
	}
	if *all || *so {
		// 12×8 sources over 10×6 receivers, 256 samples at 4 ms
		if err := solversAblation(os.Stdout, seismic.Options{Geom: seismic.DefaultGeometry()}); err != nil {
			log.Fatal(err)
		}
	}
	if *all || *dm {
		demultipleAblation()
	}
}
