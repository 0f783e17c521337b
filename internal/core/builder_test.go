package core

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/estimator"
	"repro/internal/lsqr"
	"repro/internal/mdc"
	"repro/internal/mdd"
	"repro/internal/precision"
	"repro/internal/seismic"
	"repro/internal/sfc"
	"repro/internal/testkit"
	"repro/internal/tlr"
)

// serveDataset is mddserve's survey for its smallest test spec: the
// geometry and sampling constants Server.build fills in around a
// 4×3 / 3×3 / nt 32 DatasetSpec.
func serveDataset() seismic.Options {
	return seismic.Options{
		Geom: seismic.Geometry{
			NsX: 4, NsY: 3, NrX: 3, NrY: 3,
			Dx: 20, Dy: 20, SrcDepth: 10, RecDepth: 300,
		},
		Nt: 32, Dt: 0.004,
	}
}

func bitEqual(t *testing.T, what string, got, want []complex64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// openFDs counts this process's open descriptors (skipping the check
// where /proc is not mounted).
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to count descriptors: %v", err)
	}
	return len(ents)
}

func invertSharded(t *testing.T, prob *mdd.Problem) *lsqr.Result {
	t.Helper()
	sop, err := prob.ShardedOperator(2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := mdd.InvertResilient(sop, prob.Data(4), mdd.ResilientOptions{
		LSQR: lsqr.Options{MaxIters: 8}, CheckpointInterval: 1, MaxRestarts: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out.Result
}

// TestBuildPipelineMatchesHandWrittenSequence holds the builder to the
// sequence it replaced in mddserve, written out here as the reference:
// same tiles, same footprints, and the same served inversion bit for
// bit.
func TestBuildPipelineMatchesHandWrittenSequence(t *testing.T) {
	ds, err := seismic.Generate(serveDataset())
	if err != nil {
		t.Fatal(err)
	}
	hds, _ := ds.Reorder(sfc.Hilbert)
	dk, err := mdc.NewDenseKernel(hds.K)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := mdc.CompressKernel(dk, tlr.Options{NB: 8, Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	wantProb, err := mdd.NewProblem(hds, tk)
	if err != nil {
		t.Fatal(err)
	}

	// the zero TileSize/Accuracy are mddserve's defaults too (nb 8, 1e-4)
	pipe, err := BuildPipeline(PipelineOptions{Dataset: serveDataset()})
	if err != nil {
		t.Fatal(err)
	}
	if pv := pipe.Provenance; pv.DenseBytes != dk.Bytes() || pv.CompressedBytes != tk.Bytes() {
		t.Errorf("footprint %d/%d, hand-written %d/%d", pv.DenseBytes, pv.CompressedBytes, dk.Bytes(), tk.Bytes())
	}
	for f, want := range tk.Mats {
		got := pipe.Kernel.Mats[f]
		if len(got.Tiles) != len(want.Tiles) {
			t.Fatalf("matrix %d: %d tiles, want %d", f, len(got.Tiles), len(want.Tiles))
		}
		for i, wt := range want.Tiles {
			bitEqual(t, "U", got.Tiles[i].U.Data, wt.U.Data)
			bitEqual(t, "V", got.Tiles[i].V.Data, wt.V.Data)
		}
	}
	got, want := invertSharded(t, pipe.Problem), invertSharded(t, wantProb)
	if got.Iters != want.Iters || len(got.ResidualHistory) != len(want.ResidualHistory) {
		t.Fatalf("%d iterations / %d residuals, hand-written %d / %d",
			got.Iters, len(got.ResidualHistory), want.Iters, len(want.ResidualHistory))
	}
	for i, r := range want.ResidualHistory {
		if got.ResidualHistory[i] != r {
			t.Fatalf("residual %d is %g, hand-written %g", i, got.ResidualHistory[i], r)
		}
	}
	bitEqual(t, "X", got.X, want.X)
}

// TestStoreBackOwnsTheHandle: fp32 store-backed products are the
// in-memory ones bit for bit under a budget that streams, the provenance
// says so, and the pipeline holds exactly one descriptor from StoreBack
// until Close.
func TestStoreBackOwnsTheHandle(t *testing.T) {
	pipe, err := BuildPipeline(PipelineOptions{Dataset: smallDataset(), TileSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	nf := pipe.DS.NumFreqs()
	rng := testkit.NewRNG(7)
	m0 := pipe.Kernel.Mats[0]
	xs, want := make([][]complex64, nf), make([][]complex64, nf)
	for f := range xs {
		xs[f], want[f] = testkit.Vec(rng, m0.N), make([]complex64, m0.M)
		pipe.Kernel.Mats[f].MulVec(xs[f], want[f])
	}
	if err := pipe.Close(); err != nil {
		t.Fatalf("Close on a pipeline that was never store-backed: %v", err)
	}

	before := openFDs(t)
	budget := pipe.Provenance.CompressedBytes / 8
	if err := pipe.StoreBack(filepath.Join(t.TempDir(), "k.tlrp"), budget, nil); err != nil {
		t.Fatal(err)
	}
	if n := openFDs(t); n != before+1 {
		t.Errorf("%d descriptors open after StoreBack, want %d", n, before+1)
	}
	if pv := pipe.Provenance; pv.StoreBudget != budget || pv.Policy != nil {
		t.Errorf("provenance reports budget %d policy %v, want %d and nil", pv.StoreBudget, pv.Policy, budget)
	}
	if err := pipe.StoreBack(filepath.Join(t.TempDir(), "again.tlrp"), budget, nil); err == nil {
		t.Error("second StoreBack accepted")
	}
	got := make([]complex64, m0.M)
	for f := range xs {
		if !pipe.Kernel.Mats[f].OutOfCore() {
			t.Fatalf("matrix %d is not store-backed", f)
		}
		pipe.Kernel.Mats[f].MulVec(xs[f], got)
		bitEqual(t, "store-backed product", got, want[f])
	}
	// Evictions counts the reads that were not admitted
	if st := pipe.StoreStats(); st.Evictions == 0 || st.ResidentBytes > budget {
		t.Errorf("budget %d admitted every read or was exceeded: %+v", budget, st)
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	if n := openFDs(t); n != before {
		t.Errorf("%d descriptors open after Close, want %d", n, before)
	}
	if err := pipe.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestStoreBackFailureLeavesNothingBehind: a page file that cannot be
// created, and a store that cannot be opened after it was written, both
// leave the pipeline in memory with no descriptor — and the first no
// file.
func TestStoreBackFailureLeavesNothingBehind(t *testing.T) {
	pipe, err := BuildPipeline(PipelineOptions{Dataset: serveDataset()})
	if err != nil {
		t.Fatal(err)
	}
	before := openFDs(t)
	path := filepath.Join(t.TempDir(), "missing", "k.tlrp")
	if err := pipe.StoreBack(path, 1<<20, nil); err == nil {
		t.Fatal("StoreBack into a missing directory succeeded")
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("failed write left %s behind (stat: %v)", path, err)
	}
	// written, then refused by the cache: a non-positive budget
	if err := pipe.StoreBack(filepath.Join(t.TempDir(), "k.tlrp"), 0, nil); err == nil {
		t.Fatal("StoreBack under a zero budget succeeded")
	}
	if n := openFDs(t); n != before {
		t.Errorf("%d descriptors open after two failed StoreBacks, want %d", n, before)
	}
	if pipe.Kernel.Mats[0].OutOfCore() || pipe.Provenance.StoreBudget != 0 {
		t.Error("a failed StoreBack must leave the kernel in memory")
	}
	if err := pipe.Close(); err != nil {
		t.Errorf("Close after a failed StoreBack: %v", err)
	}
}

// TestProvenancePredictBoundsStoreBackedProduct: Predict is
// estimator.Predict for the built configuration, and its bound holds on
// the products of exactly that configuration — fp16 off-band tiles
// behind the store, against the dense slices.
func TestProvenancePredictBoundsStoreBackedProduct(t *testing.T) {
	pipe, err := BuildPipeline(PipelineOptions{Dataset: smallDataset(), TileSize: 4, Accuracy: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	pol := precision.DiagonalBand{Band: 0.3, Demoted: precision.FP16}
	if err := pipe.StoreBack(filepath.Join(t.TempDir(), "k.tlrp"), pipe.Provenance.CompressedBytes/4, pol); err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	m0 := pipe.Kernel.Mats[0]
	want, err := estimator.Predict(estimator.Config{M: m0.M, N: m0.N, NB: 4, Acc: 1e-3, Policy: pol, Iters: 30})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := pipe.Provenance.Predict(30)
	if err != nil {
		t.Fatal(err)
	}
	if pred != want {
		t.Fatalf("Provenance.Predict = %+v, estimator.Predict for the same configuration %+v", pred, want)
	}
	if pred.DemotedFrac == 0 {
		t.Fatal("the policy demoted no tile; the bound is not exercised")
	}
	rng := testkit.NewRNG(11)
	got, ref := make([]complex64, m0.M), make([]complex64, m0.M)
	for f := 0; f < pipe.DS.NumFreqs(); f++ {
		x := testkit.Vec(rng, m0.N)
		pipe.Kernel.Mats[f].MulVec(x, got)
		pipe.DS.K[f].MulVec(x, ref)
		if nmse := seismic.NMSE(got, ref); nmse > pred.NMSEBound {
			t.Errorf("frequency %d: measured NMSE %g exceeds the predicted bound %g", f, nmse, pred.NMSEBound)
		}
	}
}
