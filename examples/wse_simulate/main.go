// WSE functional simulation: builds the communication-avoiding TLR-MVM
// layout for one real frequency matrix on a simulated PE grid, executes
// every PE's eight real MVMs, validates the reduced result against the
// reference TLR-MVM, and reports the executed memory traffic next to the
// analytic §6.6 formulas — the deepest of the examples. main_test.go
// holds what it prints.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/cfloat"
	"repro/internal/cs2"
	"repro/internal/dense"
	"repro/internal/seismic"
	"repro/internal/sfc"
	"repro/internal/tlr"
	"repro/internal/wsesim"
)

func main() {
	// A real Hilbert-sorted frequency matrix from the synthetic survey.
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
	fmt.Printf("frequency matrix %dx%d → %s\n", k.Rows, k.Cols, tm)

	const sw = 12
	mach, err := wsesim.Build(tm, sw)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("layout: stack width %d → %d PEs, worst SRAM image %d B of %d B\n",
		sw, mach.NumPEs(), mach.WorstSRAM(), cs2.SRAMBytes)

	rng := rand.New(rand.NewSource(1))
	x := dense.Random(rng, k.Cols, 1).Data
	ySim := make([]complex64, k.Rows)
	mach.MulVec(x, ySim)
	yRef := make([]complex64, k.Rows)
	tm.MulVec(x, yRef)
	diff := make([]complex64, k.Rows)
	for i := range diff {
		diff[i] = ySim[i] - yRef[i]
	}
	// the two sum in different orders, so they agree to float32 rounding
	fmt.Printf("simulated vs reference TLR-MVM within 1e-5 relative: %v\n",
		cfloat.Nrm2(diff) <= 1e-5*cfloat.Nrm2(yRef))

	meter := mach.TotalMeter()
	fmt.Printf("executed traffic: %.3f MB (%.3f MB reads, %.3f MB writes), %d FMACs\n",
		float64(meter.Bytes())/1e6, float64(meter.Reads)/1e6,
		float64(meter.Writes)/1e6, meter.FMACs)
	fmt.Printf("modelled worst-chunk cycles: %d (%.2f us at %.0f MHz)\n",
		mach.ModelCycles(), cs2.Seconds(mach.ModelCycles())*1e6, cs2.ClockHz/1e6)

	// bandwidth this single matrix would sustain on the wafer
	bw := cs2.Bandwidth(meter.Bytes(), mach.ModelCycles())
	fmt.Printf("absolute bandwidth at this layout's worst cycle: %.2f TB/s (one matrix, %d PEs)\n",
		bw/1e12, mach.NumPEs())

	// §6.5 bank placement: every chunk's arrays must admit a dual-read-
	// safe assignment to the eight 6 kB banks
	conflicts := 0
	for _, pe := range mach.PEs {
		plan, err := pe.PlanBanks()
		if err != nil {
			log.Fatal(err)
		}
		if err := plan.Verify(); err != nil {
			conflicts++
		}
	}
	fmt.Printf("bank placement: %d/%d PEs conflict-free (matrix and accumulator in distinct banks)\n",
		mach.NumPEs()-conflicts, mach.NumPEs())

	// §6.7 strategy 2: scatter each chunk's eight real MVMs over 8 PEs
	s2 := mach.Strategy2()
	fmt.Printf("strategy 2: %d PEs, worst single-MVM cycles %d (vs %d for the full chunk), base memory x%.0f\n",
		s2.PEs, s2.WorstCycles, mach.ModelCycles(), s2.BaseReplication)
}
