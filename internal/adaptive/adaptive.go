// Package adaptive implements least-squares adaptive subtraction, the
// final stage of every multiple-elimination flow (the SRME context in
// which low-rank MDC compression was first proposed — [27] in the paper,
// §4). A short matching filter f is estimated by least squares so that
// f ∗ prediction best fits the data, then the filtered prediction is
// subtracted, leaving primaries. The Toeplitz normal equations are solved
// with a from-scratch Levinson–Durbin recursion.
package adaptive

import (
	"fmt"
	"math"
)

// matchFilter returns the length-flen filter f minimizing
// ‖d − f ∗ m‖₂² (zero-lag aligned: (f∗m)[t] = Σ_k f[k]·m[t−k]).
// A small stabilization eps (relative to the zero-lag autocorrelation)
// keeps the recursion well posed for band-limited predictions.
func matchFilter(d, m []float64, flen int, eps float64) ([]float64, error) {
	if len(d) != len(m) {
		return nil, fmt.Errorf("adaptive: data length %d != prediction length %d", len(d), len(m))
	}
	if flen < 1 || flen > len(m) {
		return nil, fmt.Errorf("adaptive: filter length %d out of [1,%d]", flen, len(m))
	}
	if eps < 0 {
		return nil, fmt.Errorf("adaptive: negative stabilization %g", eps)
	}
	// autocorrelation of m (first flen lags) and crosscorrelation d·m
	r := make([]float64, flen)
	g := make([]float64, flen)
	n := len(m)
	for lag := 0; lag < flen; lag++ {
		var rr, gg float64
		for t := lag; t < n; t++ {
			rr += m[t] * m[t-lag]
			gg += d[t] * m[t-lag]
		}
		r[lag] = rr
		g[lag] = gg
	}
	if r[0] == 0 {
		return nil, fmt.Errorf("adaptive: prediction is identically zero")
	}
	r[0] *= 1 + eps
	return levinson(r, g)
}

// levinson solves the symmetric Toeplitz system T(r)·f = g by the
// Levinson–Durbin recursion in O(flen²).
func levinson(r, g []float64) ([]float64, error) {
	n := len(r)
	f := make([]float64, n)
	// a holds the prediction-error filter of the recursion
	a := make([]float64, n)
	f[0] = g[0] / r[0]
	a[0] = 1
	errV := r[0]
	for k := 1; k < n; k++ {
		// reflection coefficient
		var acc float64
		for j := 1; j <= k; j++ {
			acc += a[j-1] * r[k-j+1]
		}
		mu := -acc / errV
		// update prediction-error filter: a ← a + mu·reverse(a)
		newA := make([]float64, k+1)
		newA[0] = 1
		for j := 1; j <= k; j++ {
			var prev float64
			if j <= k-1 {
				prev = a[j]
			}
			newA[j] = prev + mu*a[k-j]
		}
		copy(a, newA)
		errV *= 1 - mu*mu
		if errV <= 0 {
			return nil, fmt.Errorf("adaptive: Toeplitz system numerically singular at order %d", k)
		}
		// update solution: standard Levinson right-hand-side step
		var accG float64
		for j := 0; j < k; j++ {
			accG += f[j] * r[k-j]
		}
		q := (g[k] - accG) / errV
		for j := 0; j <= k; j++ {
			f[j] += q * a[k-j]
		}
	}
	return f, nil
}

// convolve returns (f ∗ m) truncated to len(m).
func convolve(f, m []float64) []float64 {
	out := make([]float64, len(m))
	for t := range out {
		var acc float64
		for k := 0; k < len(f) && k <= t; k++ {
			acc += f[k] * m[t-k]
		}
		out[t] = acc
	}
	return out
}

// Subtract estimates a matching filter and returns d − f∗m along with the
// filter — the adaptive subtraction step.
func Subtract(d, m []float64, flen int, eps float64) ([]float64, []float64, error) {
	f, err := matchFilter(d, m, flen, eps)
	if err != nil {
		return nil, nil, err
	}
	fit := convolve(f, m)
	out := make([]float64, len(d))
	for i := range d {
		out[i] = d[i] - fit[i]
	}
	return out, f, nil
}

// PredictWaterLayerMultiples builds a multiple prediction for a seafloor
// trace by the roundtrip-delay model: every event spawns a copy delayed by
// the water-column two-way time and scaled by −r_wb (one free-surface and
// one water-bottom bounce), iterated to the given order — the §6.1
// multiple mechanism in prediction form.
func PredictWaterLayerMultiples(trace []float64, twt, dt, rwb float64, order int) []float64 {
	if order < 1 {
		order = 1
	}
	delay := int(math.Round(twt / dt))
	pred := make([]float64, len(trace))
	scale := 1.0
	src := trace
	for k := 1; k <= order; k++ {
		scale *= -rwb
		shift := k * delay
		for t := shift; t < len(trace); t++ {
			pred[t] += scale * src[t-shift]
		}
	}
	return pred
}

// EnergyRatio returns Σa²/Σb² (0 when b is zero-energy).
func EnergyRatio(a, b []float64) float64 {
	var ea, eb float64
	for _, v := range a {
		ea += v * v
	}
	for _, v := range b {
		eb += v * v
	}
	if eb == 0 {
		return 0
	}
	return ea / eb
}
