package adaptive

import (
	"math"
	"testing"

	"repro/internal/testkit"
)

// denseToeplitzSolve solves T(r)·f = g by Gaussian elimination, as an
// independent reference for the Levinson recursion.
func denseToeplitzSolve(r, g []float64) []float64 {
	n := len(r)
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n+1)
		for j := 0; j < n; j++ {
			lag := i - j
			if lag < 0 {
				lag = -lag
			}
			a[i][j] = r[lag]
		}
		a[i][n] = g[i]
	}
	for col := 0; col < n; col++ {
		// partial pivot
		p := col
		for row := col + 1; row < n; row++ {
			if math.Abs(a[row][col]) > math.Abs(a[p][col]) {
				p = row
			}
		}
		a[col], a[p] = a[p], a[col]
		for row := col + 1; row < n; row++ {
			f := a[row][col] / a[col][col]
			for j := col; j <= n; j++ {
				a[row][j] -= f * a[col][j]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := a[i][n]
		for j := i + 1; j < n; j++ {
			s -= a[i][j] * x[j]
		}
		x[i] = s / a[i][i]
	}
	return x
}

func TestLevinsonMatchesDenseSolve(t *testing.T) {
	rng := testkit.NewRNG(1)
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(12)
		// a valid autocorrelation: r = correlation of a random sequence
		seq := make([]float64, 64)
		for i := range seq {
			seq[i] = rng.NormFloat64()
		}
		r := make([]float64, n)
		for lag := 0; lag < n; lag++ {
			for i := lag; i < len(seq); i++ {
				r[lag] += seq[i] * seq[i-lag]
			}
		}
		g := make([]float64, n)
		for i := range g {
			g[i] = rng.NormFloat64()
		}
		got, err := levinson(r, g)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := denseToeplitzSolve(r, g)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d: f[%d] = %g, dense %g", trial, i, got[i], want[i])
			}
		}
	}
}

func TestMatchFilterRecoversKnownFilter(t *testing.T) {
	// d = f_true ∗ m exactly ⇒ MatchFilter must recover f_true
	rng := testkit.NewRNG(2)
	m := make([]float64, 300)
	for i := range m {
		m[i] = rng.NormFloat64()
	}
	fTrue := []float64{0.8, -0.3, 0.1}
	d := convolve(fTrue, m)
	f, err := matchFilter(d, m, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fTrue {
		if math.Abs(f[i]-fTrue[i]) > 1e-3 {
			t.Errorf("f[%d] = %g, want %g", i, f[i], fTrue[i])
		}
	}
}

func TestSubtractRemovesScaledPrediction(t *testing.T) {
	// d = primary + 0.7·m: subtraction must leave ≈primary
	rng := testkit.NewRNG(3)
	n := 400
	m := make([]float64, n)
	primary := make([]float64, n)
	for i := range m {
		m[i] = rng.NormFloat64()
	}
	// sparse primary, uncorrelated with m
	for i := 20; i < n; i += 57 {
		primary[i] = 2
	}
	d := make([]float64, n)
	for i := range d {
		d[i] = primary[i] + 0.7*m[i]
	}
	out, f, err := Subtract(d, m, 5, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f[0]-0.7) > 0.05 {
		t.Errorf("leading filter coefficient %g, want ≈0.7", f[0])
	}
	// residual multiple energy must be tiny relative to what was there
	res := 0.0
	orig := 0.0
	for i := range d {
		res += (out[i] - primary[i]) * (out[i] - primary[i])
		orig += 0.7 * m[i] * 0.7 * m[i]
	}
	if res > 0.05*orig {
		t.Errorf("subtraction left %.1f%% of the multiple energy", 100*res/orig)
	}
}

func TestMatchFilterValidation(t *testing.T) {
	if _, err := matchFilter([]float64{1}, []float64{1, 2}, 1, 0); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := matchFilter([]float64{1, 2}, []float64{1, 2}, 0, 0); err == nil {
		t.Error("zero filter length should fail")
	}
	if _, err := matchFilter([]float64{1, 2}, []float64{0, 0}, 1, 0); err == nil {
		t.Error("zero prediction should fail")
	}
	if _, err := matchFilter([]float64{1, 2}, []float64{1, 2}, 1, -1); err == nil {
		t.Error("negative eps should fail")
	}
}

func TestConvolveIdentity(t *testing.T) {
	m := []float64{1, 2, 3}
	out := convolve([]float64{1}, m)
	for i := range m {
		if out[i] != m[i] {
			t.Fatal("identity filter broken")
		}
	}
	// delayed spike
	out = convolve([]float64{0, 1}, m)
	if out[0] != 0 || out[1] != 1 || out[2] != 2 {
		t.Fatalf("delay filter: %v", out)
	}
}

func TestPredictWaterLayerMultiples(t *testing.T) {
	// a single spike at t=10 with twt = 20 samples and r_wb = 0.5 must
	// predict −0.5 at 30, +0.25 at 50
	trace := make([]float64, 80)
	trace[10] = 1
	pred := PredictWaterLayerMultiples(trace, 20*0.004, 0.004, 0.5, 2)
	if math.Abs(pred[30]+0.5) > 1e-12 {
		t.Errorf("first multiple %g, want -0.5", pred[30])
	}
	if math.Abs(pred[50]-0.25) > 1e-12 {
		t.Errorf("second multiple %g, want 0.25", pred[50])
	}
	if pred[10] != 0 {
		t.Error("prediction should not contain the primary")
	}
}

func TestDemultipleEndToEnd(t *testing.T) {
	// build a trace with a primary train and its water-layer multiples;
	// predict + adaptively subtract; late energy must collapse
	dt, twt, rwb := 0.004, 0.4, 0.45
	n := 512
	trace := make([]float64, n)
	// primaries at 0.3 s and 0.52 s
	trace[75] = 1
	trace[130] = 0.6
	// exact multiple mechanism
	full := make([]float64, n)
	copy(full, trace)
	mult := PredictWaterLayerMultiples(trace, twt, dt, rwb, 3)
	for i := range full {
		full[i] += mult[i]
	}
	// prediction from the full data (as real SRME does, using the data
	// itself): slightly wrong amplitudes, fixed by the adaptive filter
	pred := PredictWaterLayerMultiples(full, twt, dt, rwb*0.8, 3)
	out, _, err := Subtract(full, pred, 7, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// multiple window: after the first multiple, away from primaries
	lateBefore := EnergyRatio(full[170:], full[:170])
	lateAfter := EnergyRatio(out[170:], out[:170])
	if lateAfter > 0.5*lateBefore {
		t.Errorf("demultiple failed: late/early energy %.4f → %.4f", lateBefore, lateAfter)
	}
}

func TestEnergyRatio(t *testing.T) {
	if EnergyRatio([]float64{1, 1}, []float64{2}) != 0.5 {
		t.Error("EnergyRatio wrong")
	}
	if EnergyRatio([]float64{1}, []float64{0}) != 0 {
		t.Error("zero denominator should give 0")
	}
}

func BenchmarkMatchFilter32(b *testing.B) {
	rng := testkit.NewRNG(1)
	m := make([]float64, 1024)
	for i := range m {
		m[i] = rng.NormFloat64()
	}
	d := convolve([]float64{0.9, -0.2}, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matchFilter(d, m, 32, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}
