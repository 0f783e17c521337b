// Cross-module integration tests: each exercises a complete workflow the
// paper describes, spanning several packages, at laptop scale.
package repro

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dense"
	"repro/internal/lsqr"
	"repro/internal/mdc"
	"repro/internal/mdd"
	"repro/internal/opstore"
	"repro/internal/precision"
	"repro/internal/seismic"
	"repro/internal/sfc"
	"repro/internal/tlr"
	"repro/internal/tlrio"
	"repro/internal/tlrmmm"
	"repro/internal/wsesim"
)

func integrationDataset(t *testing.T) *seismic.Dataset {
	t.Helper()
	ds, err := seismic.Generate(seismic.Options{
		Geom: seismic.Geometry{
			NsX: 8, NsY: 6, NrX: 7, NrY: 5,
			Dx: 20, Dy: 20, SrcDepth: 10, RecDepth: 300,
		},
		Nt: 128, Dt: 0.004,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return ds
}

// TestEndToEndPipelineStages walks the paper's full workflow step by step:
// synthesize → Hilbert reorder → compress → serialize → deserialize →
// invert, asserting each stage preserves what the next one needs.
func TestEndToEndPipelineStages(t *testing.T) {
	ds := integrationDataset(t)
	hds, ord := ds.Reorder(sfc.Hilbert)
	if len(ord.RecPerm) != ds.Geom.NumReceivers() {
		t.Fatal("receiver permutation wrong length")
	}
	dk, err := mdc.NewDenseKernel(hds.K)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := mdc.CompressKernel(dk, tlr.Options{NB: 8, Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	// serialize to the paged format and reload through a store whose
	// budget holds the whole operator
	var buf bytes.Buffer
	if err := tlrio.WritePaged(&buf, &tlrio.Kernel{Freqs: hds.Freqs, Mats: tk.Mats}, nil); err != nil {
		t.Fatal(err)
	}
	st, err := opstore.OpenBytes(buf.Bytes(), tk.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	reloaded := &mdc.TLRKernel{Mats: make([]*tlr.Matrix, len(tk.Mats))}
	for f := range reloaded.Mats {
		if reloaded.Mats[f], err = st.Matrix(f); err != nil {
			t.Fatal(err)
		}
	}
	// invert with the reloaded kernel
	prob, err := mdd.NewProblem(hds, reloaded)
	if err != nil {
		t.Fatal(err)
	}
	vs := 3
	sol, err := prob.Invert(vs, lsqr.Options{MaxIters: 40})
	if err != nil {
		t.Fatal(err)
	}
	nmse := prob.NMSEAgainstTruth(sol.X, vs)
	if nmse > 0.05 {
		t.Errorf("end-to-end NMSE %g after serialization round trip", nmse)
	}
}

// TestWaferSimulatorAgreesWithAnalyticModel runs the functional simulator
// on a real compressed frequency matrix and checks its executed traffic
// and PE count against the closed-form accounting used at paper scale.
func TestWaferSimulatorAgreesWithAnalyticModel(t *testing.T) {
	ds := integrationDataset(t)
	hds, _ := ds.Reorder(sfc.Hilbert)
	k := hds.K[hds.NumFreqs()/2]
	tm, err := tlr.Compress(k, tlr.Options{NB: 8, Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	const sw = 6
	mach, err := wsesim.Build(tm, sw)
	if err != nil {
		t.Fatal(err)
	}
	// PE count must equal the chunk count derived from stacked heights
	var chunks int
	for j := 0; j < tm.NT; j++ {
		var s int // the stacked V height of tile column j
		for i := 0; i < tm.MT; i++ {
			s += tm.Tile(i, j).Rank()
		}
		chunks += (s + sw - 1) / sw
	}
	if mach.NumPEs() != chunks {
		t.Errorf("simulator uses %d PEs, stacked-height accounting says %d", mach.NumPEs(), chunks)
	}
	// executed FMACs must equal 8·nb'·Σranks adjusted for ragged tiles:
	// just check against a direct per-PE sum of the analytic formula
	x := dense.Random(randSrc(), k.Cols, 1).Data
	y := make([]complex64, k.Rows)
	mach.MulVec(x, y)
	got := mach.TotalMeter()
	var wantFMACs int64
	for _, pe := range mach.PEs {
		wantFMACs += 4 * int64(pe.Chunk.Rows) * int64(pe.ColExtent)
		for _, seg := range pe.Chunk.Segments {
			wantFMACs += 4 * int64(seg.K) * int64(tm.Tile(seg.TileRow, pe.Chunk.Col).U.Rows)
		}
	}
	if got.FMACs != wantFMACs {
		t.Errorf("executed %d FMACs, analytic %d", got.FMACs, wantFMACs)
	}
}

// TestQuantizedKernelStillInverts couples the precision extension to the
// full MDD solve: fp16 base storage must not break the inversion.
func TestQuantizedKernelStillInverts(t *testing.T) {
	ds := integrationDataset(t)
	hds, _ := ds.Reorder(sfc.Hilbert)
	dk, err := mdc.NewDenseKernel(hds.K)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := mdc.CompressKernel(dk, tlr.Options{NB: 8, Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	qmats := make([]*tlr.Matrix, len(tk.Mats))
	for i, m := range tk.Mats {
		q, err := precision.Quantize(m, precision.Uniform{F: precision.FP16})
		if err != nil {
			t.Fatal(err)
		}
		qmats[i] = q.T
	}
	prob, err := mdd.NewProblem(hds, &mdc.TLRKernel{Mats: qmats})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := prob.Invert(2, lsqr.Options{MaxIters: 40})
	if err != nil {
		t.Fatal(err)
	}
	if nmse := prob.NMSEAgainstTruth(sol.X, 2); nmse > 0.06 {
		t.Errorf("fp16-kernel inversion NMSE %g", nmse)
	}
}

// TestMultiShotMDCConsistency checks that the fused TLR-MMM applied to a
// block of virtual-source data equals per-shot TLR-MVMs through the MDC
// frequency loop.
func TestMultiShotMDCConsistency(t *testing.T) {
	ds := integrationDataset(t)
	hds, _ := ds.Reorder(sfc.Hilbert)
	k := hds.K[0]
	tm, err := tlr.Compress(k, tlr.Options{NB: 8, Tol: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	shots := 5
	x := dense.Random(randSrc(), k.Cols, shots)
	yBlock := dense.New(k.Rows, shots)
	if err := tlrmmm.MulMatFusedParallel(tm, x, yBlock, 1); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < shots; s++ {
		y := make([]complex64, k.Rows)
		tm.MulVec(x.Col(s), y)
		for i := range y {
			d := y[i] - yBlock.At(i, s)
			if math.Hypot(float64(real(d)), float64(imag(d))) > 1e-4*(1+math.Hypot(float64(real(y[i])), float64(imag(y[i])))) {
				t.Fatalf("shot %d row %d: fused %v vs per-shot %v", s, i, yBlock.At(i, s), y[i])
			}
		}
	}
}

// TestFDModelKinematicsMatchGreensFunctions ties the finite-difference
// oracle (fdmodel_test.go) to the frequency-domain generator: the
// direct-arrival time of an FD shot must match the Green's-function
// kinematics the MDC kernel is built from.
func TestFDModelKinematicsMatchGreensFunctions(t *testing.T) {
	model := integrationDataset(t).Model
	nx, nz, dx := 240, 180, 5.0
	vel := fdSection(model, nx, nz, dx)
	dt := 0.9 * dx / (model.SubVel * 1.1 * 1.1 * 1.1 * math.Sqrt2)
	nt := int(0.8 / dt)
	srcIZ := 2
	recIZ := int(300 / dx)
	cfg := fdConfig{
		Grid:  fdGrid{NX: nx, NZ: nz, DX: dx, DT: dt, NT: nt},
		Model: fdModel{Vel: vel, Rho: 1000},
		Src:   fdSource{IX: nx / 2, IZ: srcIZ, Wavelet: rickerWavelet(20, 0.06, dt, nt)},
		Recs:  []fdReceiver{{IX: nx / 2, IZ: recIZ}},
	}
	p, err := cfg.run()
	if err != nil {
		t.Fatal(err)
	}
	// compare to the straight-ray traveltime the Green's-function kernel
	// uses: distance/c + wavelet delay (+ source-shape lag tolerance)
	dist := float64(recIZ-srcIZ) * dx
	want := 0.06 + dist/model.WaterVel
	got := float64(peakIndex(p[0])) * dt
	if got < want-0.01 || got > want+0.05 {
		t.Errorf("FD direct arrival %.3f s, Green's function predicts %.3f s", got, want)
	}
}

// randSrc returns a deterministic rand source for the integration tests.
func randSrc() *rand.Rand { return rand.New(rand.NewSource(0x12345678)) }
