// Command compress regenerates Fig. 12's laptop-scale half: the
// compression/accuracy tradeoff of the TLR pre-processing step, by real
// end-to-end compression and inversion of the synthetic demo survey —
// the NMSE-vs-accuracy sweep of the top panel (black curves) — and a
// reordering ablation. The paper-scale half, the rank model's aggregate
// sizes and size per frequency matrix, is cmd/paperrun's (REPORT.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/seismic"
	"repro/internal/sfc"
)

func demoScale(iters int) {
	fmt.Println("== Fig. 12 (demo scale, real compression + MDD): NMSE and compression vs acc ==")
	opts := seismic.DemoOptions()
	fmt.Printf("dataset: %d sources x %d receivers\n",
		opts.Geom.NumSources(), opts.Geom.NumReceivers())
	sv, err := core.NewSurvey(opts)
	if err != nil {
		log.Fatal(err)
	}
	// benchmark solution: tightest accuracy, largest tile size
	vs := opts.Geom.NumReceivers() / 2
	type key struct {
		nb  int
		acc float64
	}
	// at demo scale the matrices are ~300x smaller per side than the
	// paper's, so the per-tile tolerance must be loosened further before
	// the compression error becomes visible over the LSQR floor; the
	// sweep therefore extends into the 1e-3..1e-1 regime
	accs := []float64{1e-4, 1e-3, 1e-2, 3e-2, 7e-2}
	results := map[key]*core.MDDReport{}
	ratios := map[key]float64{}
	var benchNMSE float64
	for _, nb := range []int{16, 32, 48} {
		for _, acc := range accs {
			pipe, err := sv.Build(core.PipelineOptions{TileSize: nb, Accuracy: acc})
			if err != nil {
				log.Fatal(err)
			}
			rep, err := pipe.RunMDD(vs, iters)
			if err != nil {
				log.Fatal(err)
			}
			results[key{nb, acc}] = rep
			ratios[key{nb, acc}] = pipe.Provenance.CompressionRatio()
			if nb == 48 && acc == 1e-4 {
				benchNMSE = rep.InversionNMSE
			}
		}
	}
	fmt.Printf("%4s %8s %14s %18s %13s\n", "nb", "acc", "inv NMSE", "dNMSE vs bench(%)", "compression")
	for _, nb := range []int{16, 32, 48} {
		for _, acc := range accs {
			r := results[key{nb, acc}]
			dn := 100 * (r.InversionNMSE - benchNMSE)
			fmt.Printf("%4d %8.0e %14.5f %18.3f %12.2fx\n",
				nb, acc, r.InversionNMSE, dn, ratios[key{nb, acc}])
		}
	}
	fmt.Println()
	if err := orderingAblation(os.Stdout, sv); err != nil {
		log.Fatal(err)
	}
}

// orderingAblation compares Hilbert vs Morton vs natural ordering — the
// ablation behind the paper's §4 claim that Hilbert sorting compresses
// best — on one generated survey, reordered once per ordering.
func orderingAblation(w io.Writer, sv *core.Survey) error {
	fmt.Fprintln(w, "== Reordering ablation (nb=48, acc=1e-3): compression by ordering ==")
	fmt.Fprintf(w, "%10s %13s\n", "ordering", "compression")
	for _, ord := range []sfc.Order{sfc.Shuffled, sfc.Natural, sfc.Morton, sfc.Hilbert} {
		pipe, err := sv.Reorder(ord).Build(core.PipelineOptions{TileSize: 48, Accuracy: 1e-3})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%10s %12.2fx\n", pipe.Provenance.Ordering, pipe.Provenance.CompressionRatio())
	}
	fmt.Fprintln(w)
	return nil
}

func main() {
	log.SetFlags(0)
	iters := flag.Int("iters", 30, "LSQR iterations of each inversion")
	flag.Parse()
	demoScale(*iters)
}
