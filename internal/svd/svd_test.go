package svd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dense"
)

func orthoError(q *dense.Matrix) float64 {
	g := dense.Mul(q.ConjTranspose(), q)
	return dense.Sub(g, dense.Eye(q.Cols)).FrobNorm()
}

func TestDecomposeReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][2]int{{1, 1}, {5, 5}, {12, 7}, {7, 12}, {70, 70}, {70, 25}} {
		a := dense.Random(rng, dims[0], dims[1])
		d := Decompose(a)
		if err := dense.RelError(d.Reconstruct(), a); err > 1e-5 {
			t.Errorf("%v: reconstruction error %g", dims, err)
		}
	}
}

func TestFactorsOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := dense.Random(rng, 20, 14)
	d := Decompose(a)
	if oe := orthoError(d.U); oe > 1e-5*14 {
		t.Errorf("U not orthonormal: %g", oe)
	}
	if oe := orthoError(d.V); oe > 1e-5*14 {
		t.Errorf("V not orthonormal: %g", oe)
	}
}

func TestSingularValuesDescendingNonnegative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := dense.Random(rng, 15, 15)
	d := Decompose(a)
	for i, s := range d.S {
		if s < 0 {
			t.Fatalf("negative singular value %g", s)
		}
		if i > 0 && s > d.S[i-1]+1e-12 {
			t.Fatalf("singular values not descending at %d", i)
		}
	}
}

func TestKnownSingularValuesDiagonal(t *testing.T) {
	// diag(3, 2, 1) has exactly those singular values
	a := dense.New(3, 3)
	a.Set(0, 0, 3)
	a.Set(1, 1, 2)
	a.Set(2, 2, 1)
	d := Decompose(a)
	want := []float64{3, 2, 1}
	for i := range want {
		if math.Abs(d.S[i]-want[i]) > 1e-10 {
			t.Errorf("S[%d] = %g, want %g", i, d.S[i], want[i])
		}
	}
}

func TestComplexPhaseHandled(t *testing.T) {
	// A column pair with a purely imaginary inner product exercises the
	// complex rotation path.
	a := dense.New(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 0, 1i)
	a.Set(0, 1, 1)
	a.Set(1, 1, -1i)
	d := Decompose(a)
	if err := dense.RelError(d.Reconstruct(), a); err > 1e-6 {
		t.Fatalf("complex reconstruction error %g", err)
	}
}

func TestFrobeniusNormPreserved(t *testing.T) {
	// ‖A‖F² = Σ s_i²
	rng := rand.New(rand.NewSource(4))
	a := dense.Random(rng, 18, 11)
	d := Decompose(a)
	var ss float64
	for _, s := range d.S {
		ss += s * s
	}
	fn := a.FrobNorm()
	if math.Abs(ss-fn*fn) > 1e-4*fn*fn {
		t.Errorf("Σs² = %g vs ‖A‖² = %g", ss, fn*fn)
	}
}

func TestRankDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, r := range []int{1, 4, 9} {
		a := dense.RandomLowRank(rng, 25, 20, r)
		d := Decompose(a)
		if got := d.Rank(1e-5); got != r {
			t.Errorf("rank-%d matrix: Rank(1e-5) = %d", r, got)
		}
	}
}

func TestRankZeroMatrixIsOne(t *testing.T) {
	d := Decompose(dense.New(4, 4))
	if d.Rank(1e-4) != 1 {
		t.Error("Rank of zero matrix should clamp to 1")
	}
}

func TestTruncateToleranceMeetsAccuracy(t *testing.T) {
	// The central TLR contract: ‖A − U_k V_kᴴ‖F <= acc·‖A‖F.
	rng := rand.New(rand.NewSource(6))
	a := dense.RandomDecay(rng, 40, 40, 0.7)
	for _, acc := range []float64{1e-1, 1e-2, 1e-3, 1e-4} {
		d := Decompose(a)
		uk, vk := d.Truncate(d.Rank(acc))
		approx := dense.Mul(uk, vk.ConjTranspose())
		if err := dense.RelError(approx, a); err > acc*1.5 {
			t.Errorf("acc=%g: error %g exceeds tolerance", acc, err)
		}
	}
}

func TestTruncateRankClamps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := dense.Random(rng, 6, 6)
	d := Decompose(a)
	uk, vk := d.Truncate(0)
	if uk.Cols != 1 || vk.Cols != 1 {
		t.Error("Truncate(0) should clamp to 1")
	}
	uk, vk = d.Truncate(100)
	if uk.Cols != 6 || vk.Cols != 6 {
		t.Error("Truncate(100) should clamp to 6")
	}
}

func TestTruncationErrorEqualsTailEnergy(t *testing.T) {
	// ‖A − A_k‖F = sqrt(Σ_{i>k} s_i²), the Eckart–Young identity.
	rng := rand.New(rand.NewSource(8))
	a := dense.Random(rng, 12, 12)
	d := Decompose(a)
	for _, k := range []int{1, 4, 8} {
		uk, vk := d.Truncate(k)
		approx := dense.Mul(uk, vk.ConjTranspose())
		gotErr := dense.Sub(approx, a).FrobNorm()
		var tail float64
		for i := k; i < len(d.S); i++ {
			tail += d.S[i] * d.S[i]
		}
		wantErr := math.Sqrt(tail)
		if math.Abs(gotErr-wantErr) > 1e-3*(1+wantErr) {
			t.Errorf("k=%d: error %g, Eckart–Young %g", k, gotErr, wantErr)
		}
	}
}

func TestWideMatrixTransposePath(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := dense.Random(rng, 5, 30)
	d := Decompose(a)
	if d.U.Rows != 5 || d.V.Rows != 30 {
		t.Fatalf("factor shapes wrong: U %dx%d V %dx%d", d.U.Rows, d.U.Cols, d.V.Rows, d.V.Cols)
	}
	if err := dense.RelError(d.Reconstruct(), a); err > 1e-5 {
		t.Errorf("wide reconstruction error %g", err)
	}
}

func TestSVDPropertyRandomShapes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(25)
		n := 1 + rng.Intn(25)
		a := dense.Random(rng, m, n)
		d := Decompose(a)
		if len(d.S) != min(m, n) {
			return false
		}
		return dense.RelError(d.Reconstruct(), a) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDecomposeTile70(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := dense.RandomDecay(rng, 70, 70, 0.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Decompose(a)
	}
}

func BenchmarkDecomposeTile25(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := dense.RandomDecay(rng, 25, 25, 0.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Decompose(a)
	}
}
