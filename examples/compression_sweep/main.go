// Compression sweep: compares the two tile compressors, truncated SVD and
// rank-revealing QR, on a real Hilbert-sorted frequency matrix from the
// synthetic survey — an ablation of the pluggable compression step. The
// paper also cites randomized SVD and adaptive cross approximation;
// EXPERIMENTS.md, "Retired compressors", has why they are not here.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/dense"
	"repro/internal/seismic"
	"repro/internal/sfc"
	"repro/internal/tlr"
)

func main() {
	ds, err := seismic.Generate(seismic.DemoOptions())
	if err != nil {
		log.Fatal(err)
	}
	hds, _ := ds.Reorder(sfc.Hilbert)
	// pick the highest in-band frequency: the hardest to compress
	k := hds.K[hds.NumFreqs()-1]
	fmt.Printf("frequency matrix: %dx%d at %.1f Hz\n", k.Rows, k.Cols, hds.Freqs[hds.NumFreqs()-1])

	fmt.Printf("%8s %10s %10s %12s %14s %12s\n",
		"method", "max rank", "avg rank", "compression", "rel error", "time")
	for _, method := range []tlr.Method{tlr.MethodSVD, tlr.MethodRRQR} {
		t0 := time.Now()
		tm, err := tlr.Compress(k, tlr.Options{NB: 48, Tol: 1e-3, Method: method})
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(t0)
		errRel := dense.RelError(tm.Reconstruct(), k)
		fmt.Printf("%8v %10d %10.1f %11.2fx %14.2e %12s\n",
			method, tm.MaxRank(), tm.AvgRank(), tm.CompressionRatio(), errRel, elapsed.Round(time.Millisecond))
	}

	fmt.Println("\nTLR-MVM vs dense MVM on the compressed matrix:")
	tm, err := tlr.Compress(k, tlr.Options{NB: 48, Tol: 1e-3})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	x := dense.Random(rng, k.Cols, 1).Data
	yd := make([]complex64, k.Rows)
	yt := make([]complex64, k.Rows)

	const reps = 200
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		k.MulVec(x, yd)
	}
	tDense := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		tm.MulVec(x, yt)
	}
	tTLR := time.Since(t0)
	var num, den float64
	for i := range yd {
		dr := float64(real(yd[i]) - real(yt[i]))
		di := float64(imag(yd[i]) - imag(yt[i]))
		num += dr*dr + di*di
		den += float64(real(yd[i]))*float64(real(yd[i])) + float64(imag(yd[i]))*float64(imag(yd[i]))
	}
	fmt.Printf("  dense MVM: %v/op   TLR-MVM: %v/op   result NMSE %.2e\n",
		(tDense / reps).Round(time.Microsecond), (tTLR / reps).Round(time.Microsecond), num/den)
}
