// Quickstart: compress a synthetic seismic kernel with tile low-rank
// approximation and solve one Multi-Dimensional Deconvolution with LSQR —
// the paper's pipeline in a dozen lines. README's Quickstart block is
// what it prints, and main_test.go holds the two to each other.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/seismic"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// A small ocean-bottom survey: 96 sources over 60 seafloor receivers.
	pipe, err := core.BuildPipeline(core.PipelineOptions{
		Dataset: seismic.Options{
			Geom: seismic.Geometry{
				NsX: 12, NsY: 8, NrX: 10, NrY: 6,
				Dx: 20, Dy: 20, SrcDepth: 10, RecDepth: 300,
			},
			Nt: 256, Dt: 0.004,
		},
		// Tile size and per-tile accuracy. The paper's nb is 25, 50 or
		// 70 and its acc 1e-4 to 7e-4 on 26040×15930 matrices; a 96×60
		// one needs smaller tiles and a looser accuracy to compress.
		TileSize: 16,
		Accuracy: 1e-3,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "kernel: %d frequency matrices, %.1f kB dense, %.1f kB TLR-compressed\n",
		pipe.DS.NumFreqs(), float64(pipe.Provenance.DenseBytes)/1e3, float64(pipe.Provenance.CompressedBytes)/1e3)

	// Deconvolve one virtual source with 30 LSQR iterations (§6.2).
	rep, err := pipe.RunMDD(pipe.DS.Geom.NumReceivers()/2, 30)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "adjoint (cross-correlation) NMSE vs truth: %.4f\n", rep.AdjointNMSE)
	fmt.Fprintf(w, "MDD inversion NMSE vs truth:               %.4f\n", rep.InversionNMSE)
	fmt.Fprintf(w, "LSQR: %d iterations, final residual %.3g\n", rep.Iterations, rep.FinalResidual)
	return nil
}
