package precision

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cfloat"
	"repro/internal/dense"
	"repro/internal/tlr"
)

func TestF16KnownValues(t *testing.T) {
	cases := []struct {
		f    float32
		bits uint16
	}{
		{0, 0x0000},
		{1, 0x3C00},
		{-1, 0xBC00},
		{0.5, 0x3800},
		{2, 0x4000},
		{65504, 0x7BFF},                 // max finite half
		{float32(math.Inf(1)), 0x7C00},  // +Inf
		{float32(math.Inf(-1)), 0xFC00}, // −Inf
		{5.960464477539063e-08, 0x0001}, // smallest subnormal
		{6.097555160522461e-05, 0x03FF}, // largest subnormal
		{6.103515625e-05, 0x0400},       // smallest normal
		{1e9, 0x7C00},                   // overflow → Inf
		{1e-10, 0x0000},                 // underflow → 0
	}
	for _, c := range cases {
		if got := F32ToF16(c.f); got != c.bits {
			t.Errorf("F32ToF16(%g) = %#04x, want %#04x", c.f, got, c.bits)
		}
	}
}

func TestF16RoundTripExactValues(t *testing.T) {
	// every finite half value must round-trip bit-exactly
	for h := uint32(0); h < 0x10000; h++ {
		bits := uint16(h)
		if bits&0x7C00 == 0x7C00 {
			continue // Inf/NaN
		}
		f := F16ToF32(bits)
		back := F32ToF16(f)
		if back != bits {
			t.Fatalf("half %#04x → %g → %#04x", bits, f, back)
		}
	}
}

func TestF16RelativeErrorBound(t *testing.T) {
	// |x − rt(x)| ≤ 2^-11 |x| for normal-range values
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		x := float32(rng.NormFloat64())
		y := F16ToF32(F32ToF16(x))
		if math.Abs(float64(y-x)) > math.Ldexp(1, -11)*math.Abs(float64(x))+1e-12 {
			t.Fatalf("x=%g rt=%g", x, y)
		}
	}
}

func TestF16RoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1.0 and the next half
	// (1 + 2^-10); RNE keeps the even mantissa 1.0
	x := float32(1 + math.Ldexp(1, -11))
	if got := F32ToF16(x); got != 0x3C00 {
		t.Errorf("tie should round to even: %#04x", got)
	}
	// 1 + 3·2^-11 is halfway between 1+2^-10 and 1+2^-9: rounds up to even
	x = float32(1 + 3*math.Ldexp(1, -11))
	if got := F32ToF16(x); got != 0x3C02 {
		t.Errorf("tie should round to even (up): %#04x", got)
	}
}

func TestF16NaN(t *testing.T) {
	nan := float32(math.NaN())
	h := F32ToF16(nan)
	if h&0x7C00 != 0x7C00 || h&0x3FF == 0 {
		t.Errorf("NaN encodes as %#04x", h)
	}
	if !math.IsNaN(float64(F16ToF32(h))) {
		t.Error("NaN does not round trip")
	}
}

func TestBF16KnownValues(t *testing.T) {
	if F32ToBF16(1) != 0x3F80 {
		t.Error("bf16(1)")
	}
	if F32ToBF16(-2) != 0xC000 {
		t.Error("bf16(-2)")
	}
	if BF16ToF32(0x3F80) != 1 {
		t.Error("bf16→f32(1)")
	}
	nan := F32ToBF16(float32(math.NaN()))
	if !math.IsNaN(float64(BF16ToF32(nan))) {
		t.Error("bf16 NaN round trip")
	}
}

func TestBF16ErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		x := float32(rng.NormFloat64() * math.Pow(10, rng.Float64()*10-5))
		y := BF16ToF32(F32ToBF16(x))
		if math.Abs(float64(y-x)) > math.Ldexp(1, -8)*math.Abs(float64(x))+1e-30 {
			t.Fatalf("x=%g rt=%g", x, y)
		}
	}
}

func TestBF16PropertyMonotone(t *testing.T) {
	// quantization must preserve ordering of positive values far enough
	// apart
	f := func(a, b float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) ||
			math.IsInf(float64(a), 0) || math.IsInf(float64(b), 0) {
			return true
		}
		if a > 0 && b > 2*a {
			return BF16ToF32(F32ToBF16(b)) >= BF16ToF32(F32ToBF16(a))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func smoothMatrix(rng *rand.Rand, m, n int) *dense.Matrix {
	a := dense.New(m, n)
	for t := 0; t < 5; t++ {
		fu := 0.5 + rng.Float64()*2
		fv := 0.5 + rng.Float64()*2
		amp := math.Pow(0.6, float64(t))
		for j := 0; j < n; j++ {
			vj := complex(amp*math.Cos(fv*float64(j)/float64(n)*math.Pi),
				amp*math.Sin(fv*float64(j)/float64(n)*math.Pi))
			for i := 0; i < m; i++ {
				ui := complex(math.Cos(fu*float64(i)/float64(m)*math.Pi),
					math.Sin(fu*float64(i)/float64(m)*math.Pi))
				a.Set(i, j, a.At(i, j)+complex64(ui*vj))
			}
		}
	}
	return a
}

func testTLR(t testing.TB) *tlr.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	a := smoothMatrix(rng, 96, 80)
	tm, err := tlr.Compress(a, tlr.Options{NB: 16, Tol: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

func TestQuantizeUniformFP16HalvesStorage(t *testing.T) {
	tm := testTLR(t)
	q, err := Quantize(tm, Uniform{F: FP16})
	if err != nil {
		t.Fatal(err)
	}
	if s := q.Savings(); math.Abs(s-0.5) > 0.02 {
		t.Errorf("FP16 savings %g, want ≈0.5", s)
	}
	// MVM error stays at half-precision level
	rng := rand.New(rand.NewSource(6))
	x := dense.Random(rng, 80, 1).Data
	y0 := make([]complex64, 96)
	tm.MulVec(x, y0)
	y1 := make([]complex64, 96)
	q.T.MulVec(x, y1)
	diff := make([]complex64, 96)
	for i := range diff {
		diff[i] = y1[i] - y0[i]
	}
	if rel := cfloat.Nrm2(diff) / cfloat.Nrm2(y0); rel > 5e-3 {
		t.Errorf("FP16 MVM error %g", rel)
	}
}

func TestQuantizeFP32IsExact(t *testing.T) {
	tm := testTLR(t)
	q, err := Quantize(tm, Uniform{F: FP32})
	if err != nil {
		t.Fatal(err)
	}
	if q.Savings() != 0 {
		t.Error("FP32 should save nothing")
	}
	if e := dense.RelError(q.T.Reconstruct(), tm.Reconstruct()); e > 0 {
		t.Errorf("FP32 quantization changed values: %g", e)
	}
}

func TestDiagonalBandPolicy(t *testing.T) {
	p := DiagonalBand{Band: 0.2, Demoted: FP16}
	if p.FormatFor(3, 3, 10, 10) != FP32 {
		t.Error("diagonal tile should stay FP32")
	}
	if p.FormatFor(0, 9, 10, 10) != FP16 {
		t.Error("far tile should demote")
	}
}

func TestAdaptivePolicyBeatsUniformAccuracy(t *testing.T) {
	// keeping near-diagonal tiles in FP32 must be at least as accurate as
	// demoting everything, while still saving memory
	tm := testTLR(t)
	uni, err := Quantize(tm, Uniform{F: BF16})
	if err != nil {
		t.Fatal(err)
	}
	ada, err := Quantize(tm, DiagonalBand{Band: 0.3, Demoted: BF16})
	if err != nil {
		t.Fatal(err)
	}
	ref := tm.Reconstruct()
	eUni := dense.RelError(uni.T.Reconstruct(), ref)
	eAda := dense.RelError(ada.T.Reconstruct(), ref)
	if eAda > eUni {
		t.Errorf("adaptive error %g worse than uniform %g", eAda, eUni)
	}
	if ada.Savings() <= 0 {
		t.Error("adaptive policy should still save memory")
	}
	if ada.Savings() >= uni.Savings() {
		t.Error("adaptive policy should save less than full demotion")
	}
}

func TestQuantizeNilPolicy(t *testing.T) {
	if _, err := Quantize(testTLR(t), nil); err == nil {
		t.Error("nil policy should fail")
	}
}

func TestFormatString(t *testing.T) {
	for f, want := range map[Format]string{FP32: "fp32", FP16: "fp16", BF16: "bf16", Format(9): "unknown"} {
		if f.String() != want {
			t.Errorf("Format(%d).String() = %q", f, f.String())
		}
	}
	if FP32.bytesPerReal() != 4 || FP16.bytesPerReal() != 2 {
		t.Error("bytesPerReal wrong")
	}
}

func BenchmarkQuantizeFP16(b *testing.B) {
	tm := testTLR(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Quantize(tm, Uniform{F: FP16}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestQuantizeSubnormalRangeValues(t *testing.T) {
	// seismic kernels live around 1e-5 — binary16's subnormal range.
	// Per-tile scaling must keep the relative error at the format's
	// normal-range level (~5e-4), not the subnormal collapse (~0.1).
	rng := rand.New(rand.NewSource(8))
	a := smoothMatrix(rng, 64, 48)
	for j := 0; j < a.Cols; j++ {
		col := a.Col(j)
		for i := range col {
			col[i] *= 1e-5
		}
	}
	tm, err := tlr.Compress(a, tlr.Options{NB: 16, Tol: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	q, err := Quantize(tm, Uniform{F: FP16})
	if err != nil {
		t.Fatal(err)
	}
	e := dense.RelError(q.T.Reconstruct(), tm.Reconstruct())
	if e > 2e-3 {
		t.Errorf("subnormal-range fp16 error %g — per-tile scaling broken", e)
	}
}

func TestSavingsAccountsScaleFactors(t *testing.T) {
	tm := testTLR(t)
	q, err := Quantize(tm, Uniform{F: FP16})
	if err != nil {
		t.Fatal(err)
	}
	// savings slightly under 50% because of the per-tile scale factors
	if s := q.Savings(); s > 0.5 || s < 0.48 {
		t.Errorf("FP16 savings %g, want just under 0.5", s)
	}
}
