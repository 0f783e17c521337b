package tlrmmm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dense"
	"repro/internal/testkit"
	"repro/internal/tlr"
)

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

func compress(t testing.TB, m, n int) (*tlr.Matrix, *dense.Matrix) {
	t.Helper()
	rng := testkit.NewRNG(11)
	a := smoothMatrix(rng, m, n)
	tm, err := tlr.Compress(a, tlr.Options{NB: 16, Tol: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	return tm, a
}

func TestFusedMatchesNaiveAndDense(t *testing.T) {
	tm, a := compress(t, 80, 64)
	rng := testkit.NewRNG(12)
	shots := 7
	x := dense.Random(rng, 64, shots)
	yn := dense.New(80, shots)
	if err := MulMatNaive(tm, x, yn); err != nil {
		t.Fatal(err)
	}
	yf := dense.New(80, shots)
	if err := MulMatFusedParallel(tm, x, yf, 1); err != nil {
		t.Fatal(err)
	}
	if e := dense.RelError(yf, yn); e > 1e-4 {
		t.Errorf("fused vs naive error %g", e)
	}
	// and against the dense product
	yd := dense.Mul(a, x)
	if e := dense.RelError(yf, yd); e > 1e-3 {
		t.Errorf("fused vs dense error %g", e)
	}
}

func TestFusedParallelMatchesSequential(t *testing.T) {
	tm, _ := compress(t, 96, 80)
	rng := testkit.NewRNG(13)
	x := dense.Random(rng, 80, 5)
	y1 := dense.New(96, 5)
	if err := MulMatFusedParallel(tm, x, y1, 1); err != nil {
		t.Fatal(err)
	}
	y2 := dense.New(96, 5)
	if err := MulMatFusedParallel(tm, x, y2, 4); err != nil {
		t.Fatal(err)
	}
	if e := dense.RelError(y2, y1); e > 1e-5 {
		t.Errorf("parallel fused error %g", e)
	}
}

func TestShapeValidation(t *testing.T) {
	tm, _ := compress(t, 32, 32)
	x := dense.New(16, 2) // wrong rows
	y := dense.New(32, 2)
	if err := MulMatNaive(tm, x, y); err == nil {
		t.Error("wrong X rows should fail")
	}
	x2 := dense.New(32, 2)
	y2 := dense.New(32, 3) // wrong cols
	if err := MulMatFusedParallel(tm, x2, y2, 1); err == nil {
		t.Error("wrong Y cols should fail")
	}
}

func TestSingleShotEqualsMulVec(t *testing.T) {
	tm, _ := compress(t, 48, 48)
	rng := testkit.NewRNG(14)
	x := dense.Random(rng, 48, 1)
	y := dense.New(48, 1)
	if err := MulMatFusedParallel(tm, x, y, 1); err != nil {
		t.Fatal(err)
	}
	yv := make([]complex64, 48)
	tm.MulVec(x.Col(0), yv)
	for i := 0; i < 48; i++ {
		d := y.At(i, 0) - yv[i]
		if math.Hypot(float64(real(d)), float64(imag(d))) > 1e-4 {
			t.Fatalf("single-shot mismatch at %d", i)
		}
	}
}

func TestIntensityGrowsWithShots(t *testing.T) {
	// §8: multi-shot processing raises arithmetic intensity under the
	// fused schedule but NOT under the naive per-shot loop.
	tm, _ := compress(t, 96, 96)
	prev := 0.0
	for _, s := range []int{1, 4, 16, 64} {
		f := FusedTraffic(tm, s)
		if f.Intensity <= prev {
			t.Errorf("fused intensity did not grow at %d shots: %g", s, f.Intensity)
		}
		prev = f.Intensity
		n := NaiveTraffic(tm, s)
		one := NaiveTraffic(tm, 1)
		if math.Abs(n.Intensity-one.Intensity) > 1e-12 {
			t.Errorf("naive intensity changed with shots: %g vs %g", n.Intensity, one.Intensity)
		}
	}
}

func TestFusedNeverMovesMoreBytes(t *testing.T) {
	tm, _ := compress(t, 64, 64)
	for _, s := range []int{1, 3, 10, 100} {
		if FusedTraffic(tm, s).Bytes > NaiveTraffic(tm, s).Bytes {
			t.Errorf("fused moved more bytes at %d shots", s)
		}
		if FusedTraffic(tm, s).Flops != NaiveTraffic(tm, s).Flops {
			t.Errorf("flop counts must agree at %d shots", s)
		}
	}
}

func TestCrossoverShots(t *testing.T) {
	tm, _ := compress(t, 96, 96)
	// a machine with ridge intensity 4 flop/B — below the fused
	// schedule's asymptotic intensity, so a crossover exists
	const ridge = 4.0
	s := CrossoverShots(tm, 1e9, ridge*1e9)
	if s < 1 {
		t.Fatalf("crossover = %d, want a positive shot count", s)
	}
	if got := FusedTraffic(tm, s).Intensity; got < ridge {
		t.Errorf("intensity %g at crossover %d below ridge", got, s)
	}
	if s > 1 {
		if got := FusedTraffic(tm, s-1).Intensity; got >= ridge {
			t.Errorf("crossover %d not minimal", s)
		}
	}
	// a ridge above the asymptote is never reached
	if got := CrossoverShots(tm, 1e9, 100e9); got != -1 {
		t.Errorf("unreachable ridge should return -1, got %d", got)
	}
	if CrossoverShots(tm, 0, 1) != 0 {
		t.Error("degenerate peaks should return 0")
	}
}

func BenchmarkNaive16Shots(b *testing.B) {
	tm, _ := compress(b, 128, 128)
	rng := testkit.NewRNG(1)
	x := dense.Random(rng, 128, 16)
	y := dense.New(128, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MulMatNaive(tm, x, y)
	}
}

func BenchmarkFused16Shots(b *testing.B) {
	tm, _ := compress(b, 128, 128)
	rng := testkit.NewRNG(1)
	x := dense.Random(rng, 128, 16)
	y := dense.New(128, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MulMatFusedParallel(tm, x, y, 0)
	}
}
