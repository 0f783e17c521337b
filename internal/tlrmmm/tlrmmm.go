// Package tlrmmm implements the paper's stated next step (§8): recasting
// the TLR-MVM kernel into TLR matrix-matrix multiplication to process
// multiple virtual shots simultaneously. Two execution schedules are
// provided — a naive per-shot loop of TLR-MVMs and a fused schedule that
// reads each U/V base once per block of shots — together with the memory
// traffic model that shows how multi-shot processing "re-exacerbates the
// memory wall": the bases amortize across shots, so arithmetic intensity
// climbs with the shot count and the kernel migrates from memory-bound to
// compute-bound territory.
package tlrmmm

import (
	"fmt"

	"repro/internal/cfloat"
	"repro/internal/dense"
	"repro/internal/fanout"
	"repro/internal/tlr"
)

// MulMatNaive computes Y = A·X by looping TLR-MVM over the columns of X.
// X is N×s (one column per shot), Y is M×s.
func MulMatNaive(a *tlr.Matrix, x, y *dense.Matrix) error {
	if err := checkShapes(a, x, y); err != nil {
		return err
	}
	for s := 0; s < x.Cols; s++ {
		a.MulVec(x.Col(s), y.Col(s))
	}
	return nil
}

// MulMatFusedParallel computes Y = A·X with the fused schedule: per
// tile, one complex GEMM Yv = VᴴX over all shots followed by Y += U·Yv,
// so each base is loaded once per shot block rather than once per shot.
// Tile rows run on workers goroutines; workers <= 0 uses GOMAXPROCS.
func MulMatFusedParallel(a *tlr.Matrix, x, y *dense.Matrix, workers int) error {
	if err := checkShapes(a, x, y); err != nil {
		return err
	}
	s := x.Cols
	y.Zero()
	fanout.Do(a.MT, workers, func(_, i int) {
		i0 := i * a.NB
		rowExt := min((i+1)*a.NB, a.M) - i0
		ysub := y.Slice(i0, i0+rowExt, 0, s)
		for j := 0; j < a.NT; j++ {
			tile := a.Tile(i, j)
			k := tile.Rank()
			j0 := j * a.NB
			colExt := min((j+1)*a.NB, a.N) - j0
			xsub := x.Slice(j0, j0+colExt, 0, s)
			// Yv = Vᴴ · X_j : k×s
			yv := dense.New(k, s)
			cfloat.Gemm(cfloat.ConjTrans, k, s, colExt,
				tile.V.Data, tile.V.Stride, xsub.Data, xsub.Stride,
				0, yv.Data, yv.Stride)
			// Y_i += U · Yv
			cfloat.Gemm(cfloat.NoTrans, rowExt, s, k,
				tile.U.Data, tile.U.Stride, yv.Data, yv.Stride,
				1, ysub.Data, ysub.Stride)
		}
	})
	return nil
}

func checkShapes(a *tlr.Matrix, x, y *dense.Matrix) error {
	if x.Rows != a.N {
		return fmt.Errorf("tlrmmm: X has %d rows, operator needs %d", x.Rows, a.N)
	}
	if y.Rows != a.M || y.Cols != x.Cols {
		return fmt.Errorf("tlrmmm: Y is %dx%d, want %dx%d", y.Rows, y.Cols, a.M, x.Cols)
	}
	return nil
}

// Traffic describes the modelled memory behaviour of a multi-shot TLR
// product at a given shot count.
type Traffic struct {
	Shots int
	// Bytes is the relative memory traffic (bases once per schedule
	// granularity, vectors once per shot).
	Bytes int64
	// Flops is the arithmetic work.
	Flops int64
	// Intensity is Flops/Bytes.
	Intensity float64
}

// NaiveTraffic models the per-shot loop: every base is re-read for every
// shot, so intensity stays at the TLR-MVM level regardless of shot count.
func NaiveTraffic(a *tlr.Matrix, shots int) Traffic {
	baseBytes := a.CompressedBytes()
	vecBytes := int64(8 * (a.M + a.N + 2*a.TotalRank()))
	bytes := int64(shots) * (baseBytes + vecBytes)
	flops := int64(shots) * flopsPerShot(a)
	return Traffic{Shots: shots, Bytes: bytes, Flops: flops, Intensity: ratio(flops, bytes)}
}

// FusedTraffic models the fused schedule: bases are read once, only the
// shot panels stream — intensity grows linearly with the shot count until
// compute saturates (the §8 "re-exacerbated memory wall" in reverse: the
// kernel leaves the bandwidth-bound regime).
func FusedTraffic(a *tlr.Matrix, shots int) Traffic {
	baseBytes := a.CompressedBytes()
	vecBytes := int64(shots) * int64(8*(a.M+a.N+2*a.TotalRank()))
	bytes := baseBytes + vecBytes
	flops := int64(shots) * flopsPerShot(a)
	return Traffic{Shots: shots, Bytes: bytes, Flops: flops, Intensity: ratio(flops, bytes)}
}

// flopsPerShot returns the complex-arithmetic flop count of one TLR-MVM:
// 8 real flops per complex FMAC over both base products.
func flopsPerShot(a *tlr.Matrix) int64 {
	var f int64
	for i := 0; i < a.MT; i++ {
		for j := 0; j < a.NT; j++ {
			t := a.Tile(i, j)
			f += 8 * int64(t.Rank()) * int64(t.U.Rows+t.V.Rows)
		}
	}
	return f
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// CrossoverShots returns the shot count at which the fused schedule
// becomes compute-bound on a machine with the given byte/s and flop/s
// peaks: the smallest s with FusedTraffic intensity ≥ peakFlops/peakBW.
// It returns -1 if the intensity saturates below the ridge (the vector
// streaming alone keeps the kernel memory-bound at any shot count), and
// 0 for degenerate peaks.
func CrossoverShots(a *tlr.Matrix, peakBW, peakFlops float64) int {
	if peakBW <= 0 || peakFlops <= 0 {
		return 0
	}
	ridge := peakFlops / peakBW
	// asymptotic intensity as shots → ∞: base reads amortize away and
	// only the per-shot vector traffic remains
	vecBytes := float64(8 * (a.M + a.N + 2*a.TotalRank()))
	if float64(flopsPerShot(a))/vecBytes < ridge {
		return -1
	}
	for s := 1; s <= 1<<20; s <<= 1 {
		if FusedTraffic(a, s).Intensity >= ridge {
			// binary refine between s/2 and s
			lo, hi := max(1, s/2), s
			for lo < hi {
				mid := (lo + hi) / 2
				if FusedTraffic(a, mid).Intensity >= ridge {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			return lo
		}
	}
	return 1 << 20
}
