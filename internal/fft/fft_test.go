package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naive O(n²) DFT reference
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(j) * float64(k) / float64(n)
			acc += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = acc
	}
	return out
}

func maxDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func randSignal(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func TestForwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 3, 5, 7, 12, 30, 100, 230} {
		x := randSignal(rng, n)
		want := naiveDFT(x)
		p := NewPlan(n)
		got := append([]complex128(nil), x...)
		p.Forward(got)
		if d := maxDiff(got, want); d > 1e-8*float64(n) {
			t.Errorf("n=%d: max diff %g", n, d)
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 8, 128, 3, 11, 45, 230, 1125} {
		x := randSignal(rng, n)
		p := NewPlan(n)
		y := append([]complex128(nil), x...)
		p.Forward(y)
		p.Inverse(y)
		if d := maxDiff(y, x); d > 1e-9*float64(n) {
			t.Errorf("n=%d round trip diff %g", n, d)
		}
	}
}

func TestParsevalProperty(t *testing.T) {
	// ‖x‖² = (1/n) ‖X‖²
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		x := randSignal(rng, n)
		var ex float64
		for _, v := range x {
			ex += real(v)*real(v) + imag(v)*imag(v)
		}
		p := NewPlan(n)
		p.Forward(x)
		var eX float64
		for _, v := range x {
			eX += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(ex-eX/float64(n)) < 1e-8*(1+ex)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		x := randSignal(rng, n)
		y := randSignal(rng, n)
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = x[i] + 2*y[i]
		}
		p := NewPlan(n)
		p.Forward(x)
		p.Forward(y)
		p.Forward(sum)
		for i := range sum {
			if cmplx.Abs(sum[i]-(x[i]+2*y[i])) > 1e-8*(1+cmplx.Abs(sum[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestImpulseIsFlat(t *testing.T) {
	n := 16
	x := make([]complex128, n)
	x[0] = 1
	NewPlan(n).Forward(x)
	for k, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse spectrum not flat at %d: %v", k, v)
		}
	}
}

func TestSingleToneFrequencyBin(t *testing.T) {
	n := 64
	bin := 5
	x := make([]complex128, n)
	for j := range x {
		ang := 2 * math.Pi * float64(bin) * float64(j) / float64(n)
		x[j] = cmplx.Exp(complex(0, ang))
	}
	NewPlan(n).Forward(x)
	for k, v := range x {
		want := complex128(0)
		if k == bin {
			want = complex(float64(n), 0)
		}
		if cmplx.Abs(v-want) > 1e-9*float64(n) {
			t.Fatalf("tone leak at bin %d: %v", k, v)
		}
	}
}

func TestForward64Consistency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 50
	x64 := make([]complex64, n)
	x128 := make([]complex128, n)
	orig := make([]complex64, n)
	for i := range x64 {
		v := complex(rng.NormFloat64(), rng.NormFloat64())
		x64[i] = complex64(v)
		x128[i] = complex128(complex64(v))
		orig[i] = complex64(v)
	}
	p := NewPlan(n)
	p.Forward64(x64)
	p.Forward(x128)
	for i := range x64 {
		if cmplx.Abs(complex128(x64[i])-x128[i]) > 1e-3*(1+cmplx.Abs(x128[i])) {
			t.Fatalf("Forward64 drift at %d", i)
		}
	}
	p.Inverse64(x64)
	// round trip within float32 tolerance
	for i := range x64 {
		if cmplx.Abs(complex128(x64[i]-orig[i])) > 1e-4*(1+cmplx.Abs(complex128(orig[i]))) {
			t.Fatalf("round trip drift at %d: got %v want %v", i, x64[i], orig[i])
		}
	}
}

func TestRFFTIRFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, nt := range []int{1, 2, 3, 8, 64, 100, 1126, 9} {
		x := make([]float64, nt)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		spec := RFFT(x)
		if len(spec) != nt/2+1 {
			t.Fatalf("nt=%d: spectrum length %d", nt, len(spec))
		}
		back := IRFFT(spec, nt)
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-9*float64(nt) {
				t.Fatalf("nt=%d IRFFT mismatch at %d: %g vs %g", nt, i, back[i], x[i])
			}
		}
	}
}

func TestRFFTHermitianDC(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	spec := RFFT(x)
	if math.Abs(imag(spec[0])) > 1e-12 {
		t.Error("DC bin not real")
	}
	if math.Abs(imag(spec[len(spec)-1])) > 1e-12 {
		t.Error("Nyquist bin not real for even nt")
	}
	if math.Abs(real(spec[0])-10) > 1e-12 {
		t.Errorf("DC = %v, want 10", spec[0])
	}
}

func TestFreqAxis(t *testing.T) {
	// 4.5 s at 4 ms → 1126 samples (paper dataset timing), df = 1/(nt*dt)
	nt, dt := 1126, 0.004
	f := FreqAxis(nt, dt)
	if len(f) != nt/2+1 {
		t.Fatalf("axis length %d", len(f))
	}
	if f[0] != 0 {
		t.Error("f[0] != 0")
	}
	df := 1 / (float64(nt) * dt)
	if math.Abs(f[1]-df) > 1e-12 {
		t.Errorf("df = %g, want %g", f[1], df)
	}
	// max frequency must exceed the paper's 45 Hz bandwidth
	if f[len(f)-1] < 45 {
		t.Errorf("Nyquist %g Hz < 45 Hz", f[len(f)-1])
	}
}

func TestNewPlanPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPlan(0)
}

func BenchmarkForward1024(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randSignal(rng, 1024)
	p := NewPlan(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}

func BenchmarkForwardBluestein1126(b *testing.B) {
	// 1126 = paper's time-sample count; exercises the chirp-z path
	rng := rand.New(rand.NewSource(1))
	x := randSignal(rng, 1126)
	p := NewPlan(1126)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}
