// MDD on the overthrust-style demo survey: builds the full laptop-scale
// dataset (water column over faulted dipping reflectors, free-surface
// multiples in the downgoing wavefield), compresses the kernel with
// Hilbert-sorted TLR, and deconvolves a line of virtual sources — the
// workflow behind Figs. 11 and 13.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/lsqr"
	"repro/internal/seismic"
)

func main() {
	opts := seismic.DemoOptions()
	fmt.Printf("survey: %dx%d sources, %dx%d receivers on the seafloor (%.0f m water)\n",
		opts.Geom.NsX, opts.Geom.NsY, opts.Geom.NrX, opts.Geom.NrY, opts.Geom.RecDepth)

	t0 := time.Now()
	pipe, err := core.BuildPipeline(core.PipelineOptions{
		Dataset: opts, TileSize: 48, Accuracy: 1e-3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("modelled + compressed %d frequency matrices in %.1fs (TLR %.2fx smaller)\n",
		pipe.DS.NumFreqs(), time.Since(t0).Seconds(), pipe.Provenance.CompressionRatio())

	// a short line of virtual sources along the central crossline
	g := pipe.DS.Geom
	iy := g.NrY / 2
	var vss []int
	for ix := 0; ix < g.NrX; ix += 4 {
		vss = append(vss, g.ReceiverIndex(ix, iy))
	}
	t0 = time.Now()
	sols, err := pipe.Problem.InvertLine(vss, lsqr.Options{MaxIters: 30})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inverted %d virtual sources in %.1fs (embarrassingly parallel, §6.4)\n",
		len(sols), time.Since(t0).Seconds())
	for _, sol := range sols {
		nmse := pipe.Problem.NMSEAgainstTruth(sol.X, sol.VS)
		fmt.Printf("  virtual source %3d: NMSE vs true reflectivity %.4f (%d iters)\n",
			sol.VS, nmse, sol.LSQR.Iters)
	}
}
