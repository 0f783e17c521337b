// Differential tests for the functional PE simulation: the simulated
// eight-real-MVM chunk programs must reproduce the host TLR-MVM at every
// stack width, and the executed SRAM traffic must equal the §6.6
// absolute-bytes prediction. External test package: testkit imports wsesim.
package wsesim_test

import (
	"testing"

	"repro/internal/cs2"
	"repro/internal/testkit"
	"repro/internal/tlr"
	"repro/internal/wsesim"
)

// TestDifferentialStackWidths sweeps the chunk height (the deployment
// knob of §6.7) and checks the simulated product against the reference
// TLR-MVM within float-summation-order tolerance.
func TestDifferentialStackWidths(t *testing.T) {
	a := testkit.DecayMat(testkit.NewRNG(61), 48, 40, 0.6)
	tm, err := tlr.Compress(a, tlr.Options{NB: 8, Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	rng := testkit.NewRNG(62)
	for _, sw := range []int{1, 3, 8, 16, 64} {
		m, err := wsesim.Build(tm, sw)
		if err != nil {
			t.Fatalf("sw=%d: %v", sw, err)
		}
		x := testkit.Vec(rng, tm.N)
		want := make([]complex64, tm.M)
		got := make([]complex64, tm.M)
		tm.MulVec(x, want)
		m.MulVec(x, got)
		if e := testkit.RelErr(got, want); e > testkit.ExecTolerance(tm.N) {
			t.Fatalf("sw=%d: simulated MVM relErr %g", sw, e)
		}
	}
}

// TestMeterMatchesAbsoluteBytesFormula executes one product and checks
// the PE meters against cs2.AbsoluteBytes/cs2.FMACs computed from the
// chunk plan — tying executed behaviour to the §6.6 analytic counting.
func TestMeterMatchesAbsoluteBytesFormula(t *testing.T) {
	a := testkit.Mat(testkit.NewRNG(63), 40, 32)
	tm, err := tlr.Compress(a, tlr.Options{NB: 10, Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := wsesim.Build(tm, 6)
	if err != nil {
		t.Fatal(err)
	}
	x := testkit.Vec(testkit.NewRNG(64), tm.N)
	y := make([]complex64, tm.M)
	m.MulVec(x, y)
	var wantBytes, wantFMACs int64
	for _, pe := range m.PEs {
		wantBytes += 4 * cs2.AbsoluteBytes(pe.Chunk.Rows, pe.ColExtent)
		wantFMACs += 4 * cs2.FMACs(pe.Chunk.Rows, pe.ColExtent)
		for _, seg := range pe.Chunk.Segments {
			rowExt := min((seg.TileRow+1)*tm.NB, tm.M) - seg.TileRow*tm.NB
			wantBytes += 4 * cs2.AbsoluteBytes(rowExt, seg.K)
			wantFMACs += 4 * cs2.FMACs(rowExt, seg.K)
		}
	}
	meter := m.TotalMeter()
	if meter.Bytes() != wantBytes {
		t.Errorf("executed %d B, formula predicts %d B", meter.Bytes(), wantBytes)
	}
	if meter.FMACs != wantFMACs {
		t.Errorf("executed %d FMACs, formula predicts %d", meter.FMACs, wantFMACs)
	}
	if m.ModelCycles() <= 0 {
		t.Error("model cycles must be positive")
	}
}

// TestDifferentialOracleThroughWsesim runs the full oracle (which
// includes the wsesim path and its meter invariants) on a seismic slice
// at a non-default stack width.
func TestDifferentialOracleThroughWsesim(t *testing.T) {
	a, err := testkit.SeismicSlice(1)
	if err != nil {
		t.Fatal(err)
	}
	o, err := testkit.New(a, testkit.Config{
		TLROpts:    tlr.Options{NB: 8, Tol: 1e-4},
		StackWidth: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Check(testkit.NewRNG(65), 3); err != nil {
		t.Fatal(err)
	}
}
