// Package estimator is the analytic precision-noise model for the
// compressed MDD pipeline: given an operator shape, a compression
// tolerance, a storage-tier policy, and a solver budget, it propagates
// an error bound through compress → store → TLR-MVM → LSQR and predicts
// the final NMSE before anything runs. It follows the noise-estimator
// pattern of CKKS homomorphic-encryption libraries — each pipeline
// stage contributes a bound, the bounds compose, and a differential
// test tier (TestEstimatorSoundness in the root suite) holds the
// prediction to "bound ≥ measured" on every oracle case, so the model
// stays honest as kernels evolve.
//
// The model makes (tolerance, precision, rank-layout) selection
// queryable: instead of sweeping configurations through hour-long runs,
// callers ask which tier policy keeps the predicted NMSE under a
// target — the paper's fp16/bf16 band-storage decision (§5) reduced to
// one function call.
package estimator

import (
	"fmt"
	"math"

	"repro/internal/precision"
)

// eps32 is the float32 unit roundoff, the noise floor every stage sits
// on — panels, intermediates, and outputs are all complex64.
const eps32 = 1.0 / (1 << 24)

// safety is the model's composition headroom: each stage bound is a
// first-order expectation over random inputs, and the stages are not
// independent, so the composed bound carries the same 8× factor the
// test suite's MVMTolerance uses. Empirically measured errors sit 1–2
// orders below the resulting bound; the soundness tier asserts the
// bound is never exceeded and never looser than 10× the suite
// tolerance.
const safety = 8.0

// Config describes one pipeline configuration to predict.
type Config struct {
	// M, N are the operator dimensions (per frequency matrix); NB the
	// tile size.
	M, N, NB int
	// Acc is the per-tile relative Frobenius compression tolerance (the
	// paper's acc, tlr.Options.Tol).
	Acc float64
	// Policy is the storage-tier policy the store was built with (nil =
	// uniform fp32).
	Policy precision.Policy
	// Iters is the LSQR iteration budget for the solve-stage
	// prediction (0 skips solve amplification).
	Iters int
}

// condEst is the estimate of the operator's condition number that
// amplifies the solve stage: 10 is the right order for the normal
// equations the pipeline solves.
const condEst = 10.0

// Prediction carries the per-stage bounds and their composition. All
// error quantities are relative 2-norm bounds; NMSE values are their
// squares.
type Prediction struct {
	// CompressErr is the compression stage's relative error bound εc,
	// the per-tile truncation tolerance.
	CompressErr float64
	// QuantErr is the storage stage's per-element relative quantization
	// bound εq: the demoted tier's unit roundoff, energy-weighted by the
	// fraction of demoted tiles.
	QuantErr float64
	// ExecErr is the execution stage's rounding bound εe for one
	// TLR-MVM pass (float32 accumulation over n-length dot products).
	ExecErr float64
	// DemotedFrac is the fraction of tiles the policy stores below
	// fp32.
	DemotedFrac float64
	// RelErrBound bounds the normwise relative error of one
	// store-backed TLR-MVM against the exact dense product,
	// ‖Ãx − Ax‖ / (‖A‖₂‖x‖); it does not bound ‖Ãx − Ax‖ / ‖Ax‖,
	// which grows without limit as Ax cancels. NMSEBound is its
	// square — the quantity the soundness tier checks against measured
	// oracle error.
	RelErrBound float64
	NMSEBound   float64
	// SolveRelErrBound and SolveNMSEBound carry the bound through the
	// LSQR solve: the operator perturbation amplified by the condition
	// estimate, plus the iteration rounding floor.
	SolveRelErrBound float64
	SolveNMSEBound   float64
}

// unitRoundoff returns the storage format's unit roundoff: the relative
// quantization step of one stored panel element. Matches the test
// suite's tolerance model (testkit.FormatEps).
func unitRoundoff(f precision.Format) float64 {
	switch f {
	case precision.FP16:
		return 1.0 / (1 << 11)
	case precision.BF16:
		return 1.0 / (1 << 8)
	default:
		return eps32
	}
}

// Predict composes the stage bounds for one configuration.
//
// Stage model (each bound relative to the exact dense product):
//
//	compress: εc = acc — each tile is truncated to relative Frobenius
//	          error acc, and relative 2-norm MVM error follows at the
//	          same order for the diagonally-dominant operators the
//	          pipeline handles.
//	store:    εq = 2·u·√frac — U and V are quantized independently
//	          (hence 2u to first order) with unit roundoff u of the
//	          demoted tier; only a √frac share of the operator's energy
//	          sits in demoted tiles (tier policies demote the
//	          small-magnitude off-band tiles, so tile-count fraction
//	          upper-bounds energy fraction).
//	exec:     εe = 8·eps32·√n — float32 dot-product accumulation over
//	          length-n rows, with the same 8× headroom as the suite's
//	          ExecTolerance.
//	compose:  rel ≤ safety·(εc + (εq/2 + eps32)·√n) + εe. The √n factor
//	          converts per-element storage roundoff to a vector-norm
//	          bound, mirroring MVMTolerance so the bound is provably
//	          within 10× of the tolerance the differential suite already
//	          enforces.
//	solve:    rel_solve ≤ min(1, cond·(rel + eps32·√(n·iters))) —
//	          backward-stable LSQR turns an operator perturbation into a
//	          solution perturbation amplified by the condition number,
//	          plus the iteration rounding floor.
func Predict(cfg Config) (Prediction, error) {
	if cfg.M <= 0 || cfg.N <= 0 || cfg.NB <= 0 {
		return Prediction{}, fmt.Errorf("estimator: non-positive shape %dx%d nb=%d", cfg.M, cfg.N, cfg.NB)
	}
	if cfg.Acc < 0 {
		return Prediction{}, fmt.Errorf("estimator: negative tolerance %g", cfg.Acc)
	}
	pol := cfg.Policy
	if pol == nil {
		pol = precision.Uniform{F: precision.FP32}
	}
	mt := (cfg.M + cfg.NB - 1) / cfg.NB
	nt := (cfg.N + cfg.NB - 1) / cfg.NB
	frac, u := demotedShare(pol, mt, nt)
	n := float64(cfg.N)
	sqrtN := math.Sqrt(n)

	p := Prediction{
		CompressErr: cfg.Acc,
		QuantErr:    2 * u * math.Sqrt(frac),
		ExecErr:     8 * eps32 * sqrtN,
		DemotedFrac: frac,
	}
	p.RelErrBound = safety*(p.CompressErr+(p.QuantErr/2+eps32)*sqrtN) + p.ExecErr
	p.NMSEBound = p.RelErrBound * p.RelErrBound

	iters := float64(cfg.Iters)
	p.SolveRelErrBound = math.Min(1, condEst*(p.RelErrBound+eps32*math.Sqrt(n*iters)))
	p.SolveNMSEBound = p.SolveRelErrBound * p.SolveRelErrBound
	return p, nil
}

// demotedShare walks the tile grid under the policy and returns the
// fraction of tiles stored below fp32 together with the largest unit
// roundoff among them (eps32 when nothing is demoted). Exact counting —
// not a closed form — so any Policy implementation, banded or not, gets
// a faithful share, and growing a DiagonalBand's band is provably
// monotone (it can only promote tiles).
func demotedShare(pol precision.Policy, mt, nt int) (frac, u float64) {
	u = eps32
	demoted := 0
	for i := 0; i < mt; i++ {
		for j := 0; j < nt; j++ {
			f := pol.FormatFor(i, j, mt, nt)
			if f == precision.FP32 {
				continue
			}
			demoted++
			if r := unitRoundoff(f); r > u {
				u = r
			}
		}
	}
	return float64(demoted) / float64(mt*nt), u
}
