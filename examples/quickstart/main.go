// Quickstart: compress a synthetic seismic kernel with tile low-rank
// approximation and solve one Multi-Dimensional Deconvolution with LSQR —
// the paper's pipeline in a dozen lines.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/seismic"
)

func main() {
	// A small ocean-bottom survey: 96 sources over 60 seafloor receivers.
	pipe, err := core.BuildPipeline(core.PipelineOptions{
		Dataset: seismic.Options{
			Geom: seismic.Geometry{
				NsX: 12, NsY: 8, NrX: 10, NrY: 6,
				Dx: 20, Dy: 20, SrcDepth: 10, RecDepth: 300,
			},
			Nt: 256, Dt: 0.004,
		},
		TileSize: 10,   // the paper's nb
		Accuracy: 1e-4, // the paper's acc
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kernel: %d frequency matrices, %.1f kB dense, %.1f kB TLR-compressed\n",
		pipe.DS.NumFreqs(), float64(pipe.Provenance.DenseBytes)/1e3, float64(pipe.Provenance.CompressedBytes)/1e3)

	// Deconvolve one virtual source with 30 LSQR iterations (§6.2).
	rep, err := pipe.RunMDD(pipe.DS.Geom.NumReceivers()/2, 30)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adjoint (cross-correlation) NMSE vs truth: %.4f\n", rep.AdjointNMSE)
	fmt.Printf("MDD inversion NMSE vs truth:               %.4f\n", rep.InversionNMSE)
	fmt.Printf("LSQR: %d iterations, final residual %.3g\n", rep.Iterations, rep.FinalResidual)
}
