package core

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/cs2"
	"repro/internal/dense"
	"repro/internal/ranks"
	"repro/internal/seismic"
	"repro/internal/sfc"
	"repro/internal/tlr"
)

func smallDataset() seismic.Options {
	return seismic.Options{
		Geom: seismic.Geometry{
			NsX: 6, NsY: 4, NrX: 5, NrY: 3,
			Dx: 20, Dy: 20, SrcDepth: 10, RecDepth: 300,
		},
		Nt: 128,
		Dt: 0.004,
	}
}

func TestBuildPipelineCompressed(t *testing.T) {
	pipe, err := BuildPipeline(PipelineOptions{
		Dataset: smallDataset(), TileSize: 4, Accuracy: 1e-4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pv := pipe.Provenance; pv.CompressedBytes == 0 || pv.DenseBytes == 0 || pv.TileSize != 4 || pv.Accuracy != 1e-4 {
		t.Errorf("provenance not recorded: %+v", pv)
	}
	if pipe.Provenance.Ordering != sfc.Hilbert {
		t.Error("default ordering should be Hilbert")
	}
}

// TestExplicitNaturalOrderingIsHonoured: Natural is a choice, not the
// unset value — asking for it with compression on must compress the
// survey in acquisition order, not silently Hilbert-sort it.
func TestExplicitNaturalOrderingIsHonoured(t *testing.T) {
	ds, err := seismic.Generate(smallDataset())
	if err != nil {
		t.Fatal(err)
	}
	sv, err := NewSurvey(smallDataset())
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := sv.Reorder(sfc.Natural).Build(PipelineOptions{TileSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Provenance.Ordering != sfc.Natural {
		t.Fatalf("asked for natural ordering, built %v", pipe.Provenance.Ordering)
	}
	if pipe.Kernel == nil {
		t.Fatal("natural ordering must still compress")
	}
	for f, k := range ds.K {
		bitEqual(t, fmt.Sprintf("K[%d]", f), pipe.DS.K[f].Data, k.Data)
	}
}

// TestSurveyReorderMatchesNewSurvey: NewSurvey is the generated survey
// Hilbert-sorted, and reordering it to another ordering gives, bit for
// bit, the generated survey permuted by that ordering — K, P⁻ and the
// true reflectivity alike; reordering to its own ordering is the survey
// itself.
func TestSurveyReorderMatchesNewSurvey(t *testing.T) {
	ds, err := seismic.Generate(smallDataset())
	if err != nil {
		t.Fatal(err)
	}
	hil, err := NewSurvey(smallDataset())
	if err != nil {
		t.Fatal(err)
	}
	if hil.Reorder(sfc.Hilbert) != hil {
		t.Error("reordering a survey to its own ordering copied it")
	}
	for _, ord := range []sfc.Order{sfc.Hilbert, sfc.Morton, sfc.Natural, sfc.Shuffled} {
		g := ds.Geom
		want := ds.Permute(sfc.Permutation(sfc.GridPoints(g.NsX, g.NsY), ord),
			sfc.Permutation(sfc.GridPoints(g.NrX, g.NrY), ord))
		got := hil.Reorder(ord)
		if got.Ordering != ord {
			t.Fatalf("Reorder(%v) reports ordering %v", ord, got.Ordering)
		}
		for f := range want.K {
			bitEqual(t, fmt.Sprintf("%v K[%d]", ord, f), got.DS.K[f].Data, want.K[f].Data)
			bitEqual(t, fmt.Sprintf("%v Pminus[%d]", ord, f), got.DS.Pminus[f].Data, want.Pminus[f].Data)
			bitEqual(t, fmt.Sprintf("%v Rtrue[%d]", ord, f), got.DS.Rtrue[f].Data, want.Rtrue[f].Data)
		}
	}
}

// TestProvenanceRecordsTheSurvey: both builder entry points record the
// options that generated the survey and its ordering — "which choices
// produced this residual" — and Survey.Build records the survey's even
// when its options say otherwise, sharing the survey's dataset.
func TestProvenanceRecordsTheSurvey(t *testing.T) {
	opts := smallDataset()
	pipe, err := BuildPipeline(PipelineOptions{Dataset: opts, TileSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if pv := pipe.Provenance; pv.Dataset != opts || pv.Ordering != sfc.Hilbert {
		t.Errorf("BuildPipeline records dataset %+v ordering %v, want %+v and hilbert", pv.Dataset, pv.Ordering, opts)
	}

	hil, err := NewSurvey(opts)
	if err != nil {
		t.Fatal(err)
	}
	sv := hil.Reorder(sfc.Natural)
	for _, nb := range []int{4, 8} {
		pipe, err := sv.Build(PipelineOptions{Dataset: serveDataset(), TileSize: nb})
		if err != nil {
			t.Fatal(err)
		}
		if pv := pipe.Provenance; pv.Dataset != opts || pv.Ordering != sfc.Natural || pv.TileSize != nb {
			t.Errorf("Survey.Build records dataset %+v ordering %v nb %d, want the survey's %+v, natural, nb %d",
				pv.Dataset, pv.Ordering, pv.TileSize, opts, nb)
		}
		if pipe.DS != sv.DS || pipe.Problem.DS != sv.DS {
			t.Error("a pipeline built on a survey must share its dataset, not copy it")
		}
	}
}

func TestDemoScaleCompressionBeatsDense(t *testing.T) {
	// At demo scale the TLR kernel must be genuinely smaller than dense —
	// the memory-footprint claim of the paper at laptop scale.
	if testing.Short() {
		t.Skip("demo-scale pipeline takes several seconds")
	}
	pipe, err := BuildPipeline(PipelineOptions{
		Dataset: seismic.DemoOptions(), TileSize: 48, Accuracy: 1e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := pipe.Provenance.CompressionRatio(); r < 1.3 {
		t.Errorf("demo-scale compression ratio %.2f < 1.3", r)
	}
}

func TestRunMDDInversionBeatsAdjoint(t *testing.T) {
	pipe, err := BuildPipeline(PipelineOptions{
		Dataset: smallDataset(), TileSize: 4, Accuracy: 1e-5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pipe.RunMDD(7, 40)
	if err != nil {
		t.Fatal(err)
	}
	if rep.InversionNMSE >= rep.AdjointNMSE {
		t.Errorf("inversion NMSE %g not better than adjoint %g",
			rep.InversionNMSE, rep.AdjointNMSE)
	}
	if rep.Iterations == 0 || len(rep.Solution) == 0 {
		t.Error("empty report")
	}
}

func TestRunMDDDenseBaseline(t *testing.T) {
	pipe, err := BuildPipeline(PipelineOptions{Dataset: smallDataset(), Dense: true})
	if err != nil {
		t.Fatal(err)
	}
	if r := pipe.Provenance.CompressionRatio(); r != 1 {
		t.Errorf("dense pipeline ratio %g", r)
	}
	if err := pipe.StoreBack(filepath.Join(t.TempDir(), "k.tlrp"), 1<<20, nil); err == nil {
		t.Error("a dense pipeline has nothing to store-back")
	}
	rep, err := pipe.RunMDD(3, 30)
	if err != nil {
		t.Fatal(err)
	}
	if rep.InversionNMSE > 0.1 {
		t.Errorf("dense inversion NMSE %g", rep.InversionNMSE)
	}
}

func TestRunMDDValidatesVS(t *testing.T) {
	pipe, err := BuildPipeline(PipelineOptions{Dataset: smallDataset(), Dense: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.RunMDD(-1, 10); err == nil {
		t.Error("negative vs should fail")
	}
	if _, err := pipe.RunMDD(1000, 10); err == nil {
		t.Error("out-of-range vs should fail")
	}
}

// TestEveryTileMeetsTolerance holds each compressor to its per-tile
// contract on a real Hilbert-sorted survey, at every frequency: the
// relative Frobenius error of each tile is at most the tolerance. An
// aggregate bound over a whole matrix can hide a tile far over it.
func TestEveryTileMeetsTolerance(t *testing.T) {
	sv, err := NewSurvey(smallDataset())
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []tlr.Method{tlr.MethodSVD, tlr.MethodRRQR} {
		for _, nb := range []int{8, 16, 24} {
			for _, tol := range []float64{1e-4, 1e-3} {
				var worst float64
				for _, k := range sv.DS.K {
					tm, err := tlr.Compress(k, tlr.Options{NB: nb, Tol: tol, Method: method})
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < tm.MT; i++ {
						for j := 0; j < tm.NT; j++ {
							block := k.Slice(i*nb, min((i+1)*nb, tm.M), j*nb, min((j+1)*nb, tm.N))
							tile := tm.Tile(i, j)
							approx := dense.Mul(tile.U, tile.V.ConjTranspose())
							worst = max(worst, dense.RelError(approx, block)/tol)
						}
					}
				}
				if worst > 1.01 {
					t.Errorf("%v nb=%d tol=%g: worst tile error %.3g × tol", method, nb, tol, worst)
				}
			}
		}
	}
}

// TestRunCS2AutoStackWidth: a paper-scale deployment given no stack width
// takes the smallest one whose chunks fit the systems' PE budget
// (ranks.StackWidthFor, the rule cmd/ablate -strategies uses). On six
// systems at nb=70, acc=1e-4 it must land near the paper's 23 and within
// budget.
func TestRunCS2AutoStackWidth(t *testing.T) {
	dist, err := ranks.New(ranks.Config{NB: 70, Acc: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(6 * cs2.UsablePEs)
	sw := dist.StackWidthFor(budget)
	if sw < 18 || sw > 30 {
		t.Errorf("auto stack width %d, paper uses 23", sw)
	}
	if chunks, _ := dist.Chunks(sw); chunks > budget {
		t.Errorf("over-occupied: %d chunks on %d PEs", chunks, budget)
	}
}
