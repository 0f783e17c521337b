// Package core is the one pipeline builder of the reproduction: the
// paper's §6.1 pre-processing (synthetic survey, space-filling-curve
// reordering, TLR compression, optional paged tile store, MDD problem)
// is written here once, and the serving layer, the command-line tools
// and the examples call it. The CS-2 machine model is not built here:
// published deployments are evaluated through wse.PaperModel, any other
// through wse.Plan.
//
// Typical end-to-end use:
//
//	pipe, err := core.BuildPipeline(core.PipelineOptions{
//	    TileSize: 8, Accuracy: 1e-4,
//	})
//	rep, err := pipe.RunMDD(vs, 30)
package core

import (
	"fmt"

	"repro/internal/estimator"
	"repro/internal/lsqr"
	"repro/internal/mdc"
	"repro/internal/mdd"
	"repro/internal/opstore"
	"repro/internal/precision"
	"repro/internal/seismic"
	"repro/internal/sfc"
	"repro/internal/tlr"
	"repro/internal/tlrio"
)

// PipelineOptions configures the laptop-scale MDD pipeline.
type PipelineOptions struct {
	// Dataset controls the synthetic survey BuildPipeline generates (zero
	// value = defaults: 12×8 sources, 10×6 receivers, 256 samples at 4 ms,
	// 45 Hz band). Survey.Build takes the survey's instead.
	Dataset seismic.Options
	// Dense skips compression and runs MDD against the dense kernel (the
	// baseline).
	Dense bool
	// TileSize is the TLR tile size nb (default 8 at laptop scale).
	TileSize int
	// Accuracy is the tile tolerance acc (default 1e-4).
	Accuracy float64
}

// Pipeline holds a reordered dataset and its (compressed) kernel, ready
// for MDD inversions; after StoreBack it owns the open tile store.
type Pipeline struct {
	// DS is the survey's reordered dataset, shared with every other
	// pipeline built on the same Survey; read-only.
	DS      *seismic.Dataset
	Problem *mdd.Problem
	// Kernel is Problem.K when it is compressed, nil for a dense pipeline.
	Kernel *mdc.TLRKernel
	// Provenance says how the problem was built.
	Provenance Provenance

	store *opstore.Store // nil unless store-backed
}

// Provenance records which choices produced a Pipeline's operator.
type Provenance struct {
	// PipelineOptions are the build options as applied: Dataset is the
	// survey's, TileSize and Accuracy have their defaults filled in.
	PipelineOptions
	// Ordering is the survey's row/column reordering.
	Ordering sfc.Order
	// Policy is the storage-tier policy of the tile store and StoreBudget
	// its resident-byte budget; nil and 0 while the kernel is in memory.
	Policy      precision.Policy
	StoreBudget int64
	// DenseBytes and CompressedBytes are the kernel footprint before and
	// after compression (equal for a dense pipeline).
	DenseBytes      int64
	CompressedBytes int64

	rows, cols int // per-frequency operator shape, for Predict
}

// CompressionRatio returns dense/compressed kernel size.
func (pv Provenance) CompressionRatio() float64 {
	return float64(pv.DenseBytes) / float64(pv.CompressedBytes)
}

// Predict returns the analytic noise estimator's bounds for exactly this
// configuration and an LSQR budget of iters.
func (pv Provenance) Predict(iters int) (estimator.Prediction, error) {
	return estimator.Predict(estimator.Config{
		M: pv.rows, N: pv.cols, NB: pv.TileSize, Acc: pv.Accuracy,
		Policy: pv.Policy, Iters: iters,
	})
}

// Survey is the §6.1 pre-processing up to compression: a generated
// survey, reordered once, with the options and ordering that made it.
// Every pipeline built on it shares DS and does not modify it, so
// callers that sweep configurations generate and reorder once.
type Survey struct {
	DS       *seismic.Dataset
	Dataset  seismic.Options
	Ordering sfc.Order

	srcPerm, recPerm []int // acquisition index of each reordered source and receiver
}

// NewSurvey generates the survey dataset describes and reorders it along
// the Hilbert curve, the paper's choice; Reorder gives any other ordering.
func NewSurvey(dataset seismic.Options) (*Survey, error) {
	ds, err := seismic.Generate(dataset)
	if err != nil {
		return nil, fmt.Errorf("core: generating dataset: %w", err)
	}
	rds, o := ds.Reorder(sfc.Hilbert)
	return &Survey{DS: rds, Dataset: dataset, Ordering: sfc.Hilbert, srcPerm: o.SrcPerm, recPerm: o.RecPerm}, nil
}

// Reorder returns the same generated survey under ord (sv itself when it
// already is), permuted from sv without generating it again: bit for bit
// what generating sv.Dataset and reordering it by ord gives.
func (sv *Survey) Reorder(ord sfc.Order) *Survey {
	if ord == sv.Ordering {
		return sv
	}
	g := sv.DS.Geom
	srcPerm := sfc.Permutation(sfc.GridPoints(g.NsX, g.NsY), ord)
	recPerm := sfc.Permutation(sfc.GridPoints(g.NrX, g.NrY), ord)
	return &Survey{
		DS:      sv.DS.Permute(compose(sv.srcPerm, srcPerm), compose(sv.recPerm, recPerm)),
		Dataset: sv.Dataset, Ordering: ord, srcPerm: srcPerm, recPerm: recPerm,
	}
}

// compose returns the positions in an ordering "from" of the acquisition
// indices listed by an ordering "to": element i of the result is where
// to[i] sits in from.
func compose(from, to []int) []int {
	inv, q := sfc.Inverse(from), make([]int, len(to))
	for i, p := range to {
		q[i] = inv[p]
	}
	return q
}

// BuildPipeline generates the survey, reorders it along the Hilbert
// curve (the paper's choice), then builds the pipeline on it;
// NewSurvey(...).Reorder chooses another ordering.
func BuildPipeline(opts PipelineOptions) (*Pipeline, error) {
	sv, err := NewSurvey(opts.Dataset)
	if err != nil {
		return nil, err
	}
	return sv.Build(opts)
}

// Build compresses the survey's kernel and binds the MDD problem over
// sv.DS without copying it. opts.Dataset is not read: the pipeline was
// built on the survey's, and its Provenance says so.
func (sv *Survey) Build(opts PipelineOptions) (*Pipeline, error) {
	opts.Dataset = sv.Dataset
	dk, err := mdc.NewDenseKernel(sv.DS.K)
	if err != nil {
		return nil, err
	}
	pipe := &Pipeline{DS: sv.DS}
	var kernel mdc.Kernel = dk
	if !opts.Dense {
		if opts.TileSize == 0 {
			opts.TileSize = 8
		}
		if opts.Accuracy == 0 {
			opts.Accuracy = 1e-4
		}
		pipe.Kernel, err = mdc.CompressKernel(dk, tlr.Options{NB: opts.TileSize, Tol: opts.Accuracy})
		if err != nil {
			return nil, fmt.Errorf("core: compressing kernel: %w", err)
		}
		kernel = pipe.Kernel
	}
	pipe.Provenance = Provenance{
		PipelineOptions: opts, Ordering: sv.Ordering,
		DenseBytes: dk.Bytes(), CompressedBytes: kernel.Bytes(),
		rows: dk.Rows(), cols: dk.Cols(),
	}
	pipe.Problem, err = mdd.NewProblem(sv.DS, kernel)
	if err != nil {
		return nil, err
	}
	return pipe, nil
}

// WriteStore writes the compressed kernel to a paged TLRP file under the
// given storage-tier policy (nil = uniform fp32) and leaves the pipeline
// as it was. A failed write leaves no file behind.
func (p *Pipeline) WriteStore(path string, pol precision.Policy) error {
	if p.Kernel == nil {
		return fmt.Errorf("core: a dense pipeline has no compressed kernel to store")
	}
	return opstore.WriteFile(path, &tlrio.Kernel{Freqs: p.DS.Freqs, Mats: p.Kernel.Mats}, pol)
}

// StoreBack is WriteStore, then the file reopened under a resident-byte
// budget and every frequency matrix swapped for its store-backed twin, so
// products fault tiles through the store's tile cache; under a nil policy
// (fp32 decodes bit-identically) that changes memory behaviour, never
// results.
// The pipeline owns the open store until Close; on failure no descriptor
// stays open and the kernel stays in memory. Not for a problem already
// shared between goroutines.
func (p *Pipeline) StoreBack(path string, budget int64, pol precision.Policy) error {
	if p.store != nil {
		return fmt.Errorf("core: pipeline is already store-backed")
	}
	if err := p.WriteStore(path, pol); err != nil {
		return err
	}
	st, err := opstore.OpenFile(path, budget)
	if err != nil {
		return fmt.Errorf("core: opening kernel store: %w", err)
	}
	mats := make([]*tlr.Matrix, len(p.Kernel.Mats))
	for f := range mats {
		if mats[f], err = st.Matrix(f); err != nil {
			st.Close()
			return fmt.Errorf("core: store matrix %d: %w", f, err)
		}
	}
	copy(p.Kernel.Mats, mats)
	p.store = st
	p.Provenance.Policy, p.Provenance.StoreBudget = pol, budget
	return nil
}

// StoreStats snapshots the tile cache counters of a store-backed
// pipeline (the zero value otherwise).
func (p *Pipeline) StoreStats() opstore.CacheStats {
	if p.store == nil {
		return opstore.CacheStats{}
	}
	return p.store.Stats()
}

// Close releases the tile store; the problem of a store-backed pipeline
// must not be used afterwards. A no-op without a store or when repeated.
func (p *Pipeline) Close() error {
	if p.store == nil {
		return nil
	}
	err := p.store.Close()
	p.store = nil
	return err
}

// MDDReport summarizes one virtual-source deconvolution.
type MDDReport struct {
	VS int
	// InversionNMSE and AdjointNMSE compare against the ground truth
	// (the adjoint is optimally scaled first).
	InversionNMSE float64
	AdjointNMSE   float64
	// Iterations and FinalResidual report the LSQR run.
	Iterations    int
	FinalResidual float64
	// Solution and Adjoint are the recovered frequency-domain panels.
	Solution []complex64
	Adjoint  []complex64
}

// RunMDD inverts one virtual source with `iters` LSQR iterations and
// returns quality metrics against the ground truth.
func (p *Pipeline) RunMDD(vs, iters int) (*MDDReport, error) {
	if vs < 0 || vs >= p.DS.Geom.NumReceivers() {
		return nil, fmt.Errorf("core: virtual source %d outside [0,%d)", vs, p.DS.Geom.NumReceivers())
	}
	sol, err := p.Problem.Invert(vs, lsqr.Options{MaxIters: iters})
	if err != nil {
		return nil, err
	}
	adj := p.Problem.Adjoint(vs)
	truth := p.Problem.TrueReflectivity(vs)
	return &MDDReport{
		VS:            vs,
		InversionNMSE: p.Problem.NMSEAgainstTruth(sol.X, vs),
		AdjointNMSE:   seismic.NMSE(scaleToReference(adj, truth), truth),
		Iterations:    sol.LSQR.Iters,
		FinalResidual: sol.LSQR.ResidualNorm,
		Solution:      sol.X,
		Adjoint:       adj,
	}, nil
}

// scaleToReference applies the least-squares optimal complex scalar to x
// so that adjoint estimates (which carry the source-spectrum energy) are
// compared fairly against the reference.
func scaleToReference(x, ref []complex64) []complex64 {
	var num, den complex128
	for i := range x {
		xc := complex128(x[i])
		xcConj := complex128(complex(real(x[i]), -imag(x[i])))
		num += xcConj * complex128(ref[i])
		den += xcConj * xc
	}
	if den == 0 {
		return x
	}
	a := complex64(num / den)
	out := make([]complex64, len(x))
	for i := range x {
		out[i] = a * x[i]
	}
	return out
}
