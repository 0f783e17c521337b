// Command mddrun runs the end-to-end Multi-Dimensional Deconvolution
// pipeline on the synthetic ocean-bottom dataset and regenerates the
// qualitative results of the paper:
//
//	-fig11   single virtual source: adjoint vs inversion at tight and
//	         loose compression accuracy vs ground truth, with NMSE and
//	         trace diagnostics (Fig. 11).
//	-fig13   a line of virtual sources along a fixed crossline: the
//	         zero-offset sections of the full, upgoing, and MDD data,
//	         with the free-surface-multiple energy suppression quantified
//	         (Fig. 13).
//	-faultdemo
//	         fault-tolerant sharded inversion: the frequency fan-out runs
//	         over -shards simulated CS-2 systems while the deterministic
//	         -faults schedule kills, fails, or corrupts them; the solve
//	         survives via re-sharding plus checkpoint resume every
//	         -ckpt-interval iterations and is compared against the
//	         fault-free single-system result.
//	-store   out-of-core operator demo: the survey's kernel is
//	         compressed, written to a paged tile store with an fp16
//	         off-band storage tier, reopened under a byte budget far
//	         below the operator size, and swept product-by-product —
//	         cache traffic, resident bytes, and the analytic estimator's
//	         predicted NMSE bound against the measured error are printed.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/fault"
	"repro/internal/lsqr"
	"repro/internal/mdd"
	"repro/internal/obs"
	"repro/internal/precision"
	"repro/internal/render"
	"repro/internal/seismic"
)

// savePanel writes a gather as a PGM figure panel if outDir is set.
func savePanel(outDir, name string, g *seismic.Gather) {
	if outDir == "" {
		return
	}
	path := filepath.Join(outDir, name+".pgm")
	img := render.GatherImage(g, 4, 0.4)
	if err := img.SavePGM(path); err != nil {
		log.Fatalf("writing %s: %v", path, err)
	}
	fmt.Printf("  wrote %s (%dx%d)\n", path, img.W, img.H)
}

func fig11(iters int, outDir string) {
	fmt.Println("== Fig. 11: MDD on a single virtual source ==")
	opts := seismic.DemoOptions()
	vs := opts.Geom.NumReceivers() / 2

	var panels *core.Pipeline
	run := func(label, panel string, acc float64) *core.MDDReport {
		pipe, err := core.BuildPipeline(core.PipelineOptions{
			Dataset: opts, TileSize: 48, Accuracy: acc,
		})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := pipe.RunMDD(vs, iters)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-34s adjoint NMSE %.4f | inversion NMSE %.4f | iters %d | compression %.2fx\n",
			label, rep.AdjointNMSE, rep.InversionNMSE, rep.Iterations, pipe.Provenance.CompressionRatio())
		savePanel(outDir, panel, pipe.Problem.Gather(rep.Solution))
		panels = pipe
		return rep
	}

	tight := run("a/b) nb=48, acc=1e-4 (tight):", "fig11b_inverse_tight", 1e-4)
	loose := run("c)   nb=48, acc=7e-2 (loose):", "fig11c_inverse_loose", 7e-2)
	if outDir != "" {
		savePanel(outDir, "fig11a_adjoint", panels.Problem.Gather(loose.Adjoint))
		savePanel(outDir, "fig11d_truth", panels.Problem.Gather(panels.Problem.TrueReflectivity(vs)))
	}
	fmt.Println()
	fmt.Println("paper's qualitative claims, checked:")
	okCross := tight.InversionNMSE < tight.AdjointNMSE
	fmt.Printf("  inversion beats cross-correlation:  %v (%.4f < %.4f)\n",
		okCross, tight.InversionNMSE, tight.AdjointNMSE)
	okAcc := loose.InversionNMSE > tight.InversionNMSE
	fmt.Printf("  loose acc adds noise to solution:   %v (%.4f > %.4f)\n",
		okAcc, loose.InversionNMSE, tight.InversionNMSE)
	fmt.Println()
}

func fig13(iters int, outDir string) {
	fmt.Println("== Fig. 13: zero-offset sections along a fixed crossline ==")
	opts := seismic.DemoOptions()
	pipe, err := core.BuildPipeline(core.PipelineOptions{
		Dataset: opts, TileSize: 48, Accuracy: 1e-3,
	})
	if err != nil {
		log.Fatal(err)
	}
	ds := pipe.DS
	g := ds.Geom
	iy := g.NrY / 2

	// full data p = p+ + p−: the downgoing K is stored (sources ×
	// receivers); at the co-located pair the full pressure combines both.
	full := ds.ZeroOffsetSection(iy, func(f, r, s int) complex64 {
		return ds.K[f].At(s, r) + ds.Pminus[f].At(r, s)
	})
	up := ds.ZeroOffsetSection(iy, func(f, r, s int) complex64 {
		return ds.Pminus[f].At(r, s)
	})

	// MDD data: invert every virtual source along the crossline, then
	// extract each virtual source's zero-offset (self) trace.
	vss := make([]int, g.NrX)
	for ix := 0; ix < g.NrX; ix++ {
		vss[ix] = g.ReceiverIndex(ix, iy)
	}
	fmt.Printf("inverting %d virtual sources in parallel (the paper uses 177 across 708 GPUs)...\n", len(vss))
	sols, err := pipe.Problem.InvertLine(vss, lsqr.Options{MaxIters: iters})
	if err != nil {
		log.Fatal(err)
	}
	nr := g.NumReceivers()
	mddSec := &seismic.Gather{Dt: ds.Dt}
	truthSec := &seismic.Gather{Dt: ds.Dt}
	for i, sol := range sols {
		spec := make([]complex64, ds.NumFreqs())
		specT := make([]complex64, ds.NumFreqs())
		for f := 0; f < ds.NumFreqs(); f++ {
			spec[f] = sol.X[f*nr+vss[i]]
			specT[f] = ds.Rtrue[f].At(vss[i], vss[i])
		}
		mddSec.Traces = append(mddSec.Traces, ds.TimeSeries(spec))
		truthSec.Traces = append(truthSec.Traces, ds.TimeSeries(specT))
	}

	// The water column is 300 m, so the free-surface multiple period is
	// ≈ 2·300/1500 = 0.4 s. The deepest upgoing primary arrives by
	// ≈ 1.1 s; the 1.15–2.0 s window therefore contains only water-layer
	// multiples in the upgoing data, which MDD must suppress.
	tMul0, tMul1 := 1.15, 2.0
	norm := func(sec *seismic.Gather) float64 {
		tot := sec.Energy()
		if tot == 0 {
			return 0
		}
		return sec.WindowEnergy(tMul0, tMul1) / tot
	}
	fmt.Println()
	fmt.Printf("%-28s %14s %22s\n", "section", "total energy", "late-window fraction")
	fmt.Printf("%-28s %14.4g %21.2f%%\n", "full data (p+ + p-)", full.Energy(), 100*norm(full))
	fmt.Printf("%-28s %14.4g %21.2f%%\n", "upgoing data (p-)", up.Energy(), 100*norm(up))
	fmt.Printf("%-28s %14.4g %21.2f%%\n", "MDD local reflectivity", mddSec.Energy(), 100*norm(mddSec))
	fmt.Printf("%-28s %14.4g %21.2f%%\n", "true local reflectivity", truthSec.Energy(), 100*norm(truthSec))
	fmt.Println()
	fmt.Printf("MDD vs truth NMSE over the section: %.4f\n",
		seismic.NMSEReal(mddSec.Flatten(), truthSec.Flatten()))
	fmt.Println("(free-surface multiples populate the upgoing late window; MDD suppresses them toward the true reflectivity's level)")
	if outDir != "" {
		// velocity-model panel (Fig. 13's first panel), then the sections
		img := render.VelocityImage(ds.Model, 200, 220, 10)
		path := filepath.Join(outDir, "fig13a_velocity.pgm")
		if err := img.SavePGM(path); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  wrote %s (%dx%d)\n", path, img.W, img.H)
		savePanel(outDir, "fig13b_full", full)
		savePanel(outDir, "fig13c_upgoing", up)
		savePanel(outDir, "fig13d_mdd", mddSec)
		savePanel(outDir, "fig13e_truth", truthSec)
	}
	fmt.Println()
}

// defaultFaults is -faults' default: two of -shards' default eight
// shards die early in the solve.
const defaultFaults = "shard2:die@3,shard5:die@5"

// faultDemo is the worked fault-tolerance example: the survey's
// inversion runs over shards simulated CS-2 systems while the schedule
// fails them, and the surviving solve is compared against the
// fault-free single-system one. A malformed schedule, and a schedule
// the solve cannot survive, are errors.
func faultDemo(w io.Writer, opts seismic.Options, iters, shards int, schedule string, ckptInterval int) error {
	fmt.Fprintln(w, "== Fault-tolerant sharded MDD ==")
	sched, err := fault.Parse(schedule)
	if err != nil {
		return fmt.Errorf("-faults %q: %w", schedule, err)
	}
	vs := opts.Geom.NumReceivers() / 2
	pipe, err := core.BuildPipeline(core.PipelineOptions{
		Dataset: opts, TileSize: 48, Accuracy: 1e-4,
	})
	if err != nil {
		return err
	}
	b := pipe.Problem.Data(vs)

	// fault-free single-system reference
	ref, err := pipe.Problem.Invert(vs, lsqr.Options{MaxIters: iters})
	if err != nil {
		return err
	}

	// sharded execution with the schedule injected at shard level, and at
	// operator level where it names the "op" target
	op, err := pipe.Problem.ShardedOperator(shards)
	if err != nil {
		return err
	}
	inj := fault.NewInjector(sched)
	op.Intercept = fault.Shard(inj)
	wrapped := fault.WrapOperator(op, inj)

	obs.Enable()
	obs.Reset()
	defer obs.Disable()
	out, err := mdd.InvertResilient(wrapped, b, mdd.ResilientOptions{
		LSQR:               lsqr.Options{MaxIters: iters},
		CheckpointInterval: ckptInterval,
		MaxRestarts:        2 * len(sched),
	})
	if err != nil {
		return fmt.Errorf("resilient solve did not survive the schedule: %w", err)
	}
	snap := obs.TakeSnapshot()

	fmt.Fprintf(w, "shards %d | schedule %q | checkpoint every %d iters\n", shards, sched.String(), ckptInterval)
	fmt.Fprintf(w, "solve completed: %d iters, %d restarts, %d iterations salvaged from checkpoints\n",
		out.Result.Iters, out.Restarts, out.SalvagedIters)
	fmt.Fprintf(w, "shards alive after run: %d of %d\n", op.Runner.Alive(), shards)
	fmt.Fprintf(w, "relative error vs fault-free solve: %.3g\n", math.Sqrt(seismic.NMSE(out.Result.X, ref.LSQR.X)))
	fmt.Fprintf(w, "NMSE vs true reflectivity: faulted %.4f | fault-free %.4f\n",
		pipe.Problem.NMSEAgainstTruth(out.Result.X, vs), pipe.Problem.NMSEAgainstTruth(ref.LSQR.X, vs))
	fmt.Fprintf(w, "recovery counters: retries %d | failovers %d | deaths %d | injected %d\n",
		snap.Counter("batch.shard.retries"), snap.Counter("batch.shard.failovers"),
		snap.Counter("batch.shard.deaths"), snap.Counter("fault.injected"))
	fmt.Fprintln(w)
	return nil
}

// storeDemo is the worked out-of-core example: the survey's compressed
// kernel moved behind a paged tile store with fp16 off-band storage
// tiers and swept through under a budget far below the operator's
// footprint (0 = a quarter of it), with the analytic estimator's
// predicted bound checked against the measured error on the spot.
func storeDemo(w io.Writer, opts seismic.Options, storePath string, budget int64) error {
	fmt.Fprintln(w, "== Out-of-core tiered operator store ==")
	pipe, err := core.BuildPipeline(core.PipelineOptions{
		Dataset: opts, TileSize: 48, Accuracy: 1e-4,
	})
	if err != nil {
		return err
	}
	nf := pipe.DS.NumFreqs()
	fmt.Fprintf(w, "survey: %d sources x %d receivers, %d frequency slices\n",
		opts.Geom.NumSources(), opts.Geom.NumReceivers(), nf)

	if budget <= 0 {
		budget = pipe.Provenance.CompressedBytes / 4
	}
	if storePath == "" {
		dir, err := os.MkdirTemp("", "mddrun-store")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		storePath = filepath.Join(dir, "band.tlrp")
	}
	pol := precision.DiagonalBand{Band: 0.3, Demoted: precision.FP16}
	if err := pipe.StoreBack(storePath, budget, pol); err != nil {
		return err
	}
	defer pipe.Close()
	info, err := os.Stat(storePath)
	if err != nil {
		return err
	}
	pv := pipe.Provenance
	fmt.Fprintf(w, "operator: %v ordering, nb=%d, acc=%g, storage tiers %+v\n",
		pv.Ordering, pv.TileSize, pv.Accuracy, pv.Policy)
	fmt.Fprintf(w, "store: %s | page file %d B | compressed operator %d B | cache budget %d B (%.0f%% of operator)\n",
		storePath, info.Size(), pv.CompressedBytes, pv.StoreBudget, 100*float64(pv.StoreBudget)/float64(pv.CompressedBytes))

	rng := rand.New(rand.NewSource(42))
	var worst float64
	for f := 0; f < nf; f++ {
		ooc := pipe.Kernel.Mats[f]
		x := dense.Random(rng, ooc.N, 1).Data
		y := make([]complex64, ooc.M)
		ooc.MulVec(x, y)
		// measured error of the store-backed (fp16-demoted) product
		// against the dense reference slice
		want := make([]complex64, ooc.M)
		pipe.DS.K[f].MulVec(x, want)
		worst = max(worst, seismic.NMSE(y, want))
	}
	stats := pipe.StoreStats()
	fmt.Fprintf(w, "swept %d products: hits %d | misses %d | streamed %d | resident %d B (budget %d B)\n",
		nf, stats.Hits, stats.Misses, stats.Evictions, stats.ResidentBytes, stats.Budget)

	pred, err := pv.Predict(0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "estimator: predicted NMSE bound %.3g (rel err bound %.3g, %.0f%% of tiles demoted to fp16)\n",
		pred.NMSEBound, pred.RelErrBound, 100*pred.DemotedFrac)
	fmt.Fprintf(w, "measured:  worst NMSE %.3g (rel err %.3g) — bound holds: %v\n",
		worst, math.Sqrt(worst), worst <= pred.NMSEBound)
	fmt.Fprintln(w)
	return nil
}

// validateFlags rejects nonsensical numeric flags before any dataset is
// generated. A zero shard count would divide the frequency fan-out by
// nothing and a nonpositive checkpoint interval would make the
// resilient solver checkpoint never (or spin), so both fail at startup
// with the flag named.
func validateFlags(iters, shards, ckptInterval int, storeBudget int64) error {
	if iters < 1 {
		return fmt.Errorf("-iters must be at least 1 (got %d)", iters)
	}
	if shards < 1 {
		return fmt.Errorf("-shards must be at least 1 (got %d)", shards)
	}
	if ckptInterval < 1 {
		return fmt.Errorf("-ckpt-interval must be at least 1 (got %d)", ckptInterval)
	}
	if storeBudget < 0 {
		return fmt.Errorf("-store-budget must not be negative (got %d; 0 means a quarter of the operator)", storeBudget)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	f11 := flag.Bool("fig11", false, "single-virtual-source MDD (Fig. 11)")
	f13 := flag.Bool("fig13", false, "zero-offset section line (Fig. 13)")
	fdemo := flag.Bool("faultdemo", false, "fault-tolerant sharded MDD under an injected fault schedule")
	fstore := flag.Bool("store", false, "out-of-core tiered operator store demo with the analytic noise estimator")
	storePath := flag.String("store-path", "", "page file for -store (default: a temp file, removed after the run)")
	storeBudget := flag.Int64("store-budget", 0, "tile-cache resident-byte budget for -store (0 = a quarter of the operator)")
	iters := flag.Int("iters", 30, "LSQR iterations")
	outDir := flag.String("out", "", "directory for PGM figure panels (optional)")
	shards := flag.Int("shards", 8, "simulated CS-2 shard count for -faultdemo")
	faults := flag.String("faults", defaultFaults,
		"fault schedule (target:kind@invocation[:duration], comma-separated; kinds err|die|nan|latency)")
	ckptInterval := flag.Int("ckpt-interval", 5, "iterations between solver checkpoints for -faultdemo")
	flag.Parse()
	if !*f11 && !*f13 && !*fdemo && !*fstore {
		flag.Usage()
		os.Exit(2)
	}
	if err := validateFlags(*iters, *shards, *ckptInterval, *storeBudget); err != nil {
		log.Fatalf("mddrun: %v", err)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	if *f11 {
		fig11(*iters, *outDir)
	}
	if *f13 {
		fig13(*iters, *outDir)
	}
	if *fdemo {
		if err := faultDemo(os.Stdout, seismic.DemoOptions(), *iters, *shards, *faults, *ckptInterval); err != nil {
			log.Fatalf("mddrun: %v", err)
		}
	}
	if *fstore {
		if err := storeDemo(os.Stdout, seismic.DemoOptions(), *storePath, *storeBudget); err != nil {
			log.Fatal(err)
		}
	}
}
