package qr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dense"
)

// orthoError returns ‖QᴴQ − I‖F.
func orthoError(q *dense.Matrix) float64 {
	g := dense.Mul(q.ConjTranspose(), q)
	for i := 0; i < g.Cols; i++ {
		g.Set(i, i, g.At(i, i)-1)
	}
	return frobNorm(g)
}

// frobNorm returns ‖A‖F, accumulated in float64.
func frobNorm(a *dense.Matrix) float64 {
	var s float64
	for j := 0; j < a.Cols; j++ {
		for _, v := range a.Col(j) {
			s += float64(real(v))*float64(real(v)) + float64(imag(v))*float64(imag(v))
		}
	}
	return math.Sqrt(s)
}

// reconstruct forms Q·R and undoes the column pivoting, returning a
// matrix approximating the original A.
func reconstruct(f *Factorization) *dense.Matrix {
	qr := dense.Mul(f.Q, f.R)
	out := dense.New(qr.Rows, qr.Cols)
	for j := 0; j < qr.Cols; j++ {
		copy(out.Col(f.Piv[j]), qr.Col(j))
	}
	return out
}

func TestRRQRExactLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, r := range []int{1, 3, 7} {
		a := dense.Mul(dense.Random(rng, 30, r), dense.Random(rng, r, 25))
		f := RRQR(a, 1e-6)
		if f.Rank() > r+1 {
			t.Errorf("rank %d matrix revealed as rank %d", r, f.Rank())
		}
		if err := dense.RelError(reconstruct(f), a); err > 1e-4 {
			t.Errorf("rank-%d reconstruction error %g", r, err)
		}
	}
}

func TestRRQRToleranceControlsError(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := dense.RandomDecay(rng, 40, 40, 0.6)
	prevRank := 0
	for _, tol := range []float64{1e-1, 1e-2, 1e-4} {
		f := RRQR(a, tol)
		err := dense.RelError(reconstruct(f), a)
		// error should be on the order of tol (allow 30x headroom: the
		// column-pivot bound is not tight)
		if err > 30*tol {
			t.Errorf("tol=%g: error %g too large", tol, err)
		}
		// tighter tolerance must not reduce the revealed rank
		if f.Rank() < prevRank {
			t.Errorf("tol=%g: rank %d shrank (prev %d)", tol, f.Rank(), prevRank)
		}
		prevRank = f.Rank()
	}
}

func TestRRQRPivotIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := dense.RandomDecay(rng, 15, 15, 0.5)
	f := RRQR(a, 1e-3)
	seen := make(map[int]bool)
	for _, p := range f.Piv {
		if p < 0 || p >= 15 || seen[p] {
			t.Fatalf("invalid permutation %v", f.Piv)
		}
		seen[p] = true
	}
}

func TestRRQRZeroMatrix(t *testing.T) {
	a := dense.New(6, 6)
	f := RRQR(a, 1e-4)
	if f.Rank() < 1 {
		t.Fatal("rank must be at least 1")
	}
	if reconstruct(f).MaxAbs() > 1e-6 {
		t.Fatal("zero matrix reconstruction not zero")
	}
}

func TestRRQRDiagonalDecreasing(t *testing.T) {
	// |R(0,0)| >= |R(1,1)| >= ... is the rank-revealing property
	rng := rand.New(rand.NewSource(8))
	a := dense.RandomDecay(rng, 30, 30, 0.7)
	f := RRQR(a, 1e-6)
	prev := math.Inf(1)
	for i := 0; i < f.Rank(); i++ {
		d := math.Hypot(float64(real(f.R.At(i, i))), float64(imag(f.R.At(i, i))))
		if d > prev*(1+1e-3) {
			t.Fatalf("pivot magnitudes not decreasing at %d: %g > %g", i, d, prev)
		}
		prev = d
	}
}

func TestRRQRPropertyReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 5 + rng.Intn(30)
		n := 5 + rng.Intn(30)
		r := 1 + rng.Intn(min(m, n)/2+1)
		a := dense.Mul(dense.Random(rng, m, r), dense.Random(rng, r, n))
		fac := RRQR(a, 1e-5)
		return dense.RelError(reconstruct(fac), a) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTallSkinnyAndShortFat(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tall := dense.Random(rng, 100, 5)
	f := RRQR(tall, 0)
	if f.Q.Cols != 5 || f.R.Rows != 5 {
		t.Fatalf("thin QR shapes wrong: Q %dx%d R %dx%d", f.Q.Rows, f.Q.Cols, f.R.Rows, f.R.Cols)
	}
	if err := dense.RelError(reconstruct(f), tall); err > 1e-5 {
		t.Errorf("tall reconstruction error %g", err)
	}
	if oe := orthoError(f.Q); oe > 1e-5*float64(f.Q.Cols) {
		t.Errorf("tall Q not orthonormal (%g)", oe)
	}
	fat := dense.Random(rng, 5, 100)
	g := RRQR(fat, 0)
	if g.Q.Cols != 5 || g.R.Cols != 100 {
		t.Fatalf("fat QR shapes wrong")
	}
	if err := dense.RelError(reconstruct(g), fat); err > 1e-5 {
		t.Errorf("fat reconstruction error %g", err)
	}
}

func BenchmarkRRQRTile70(b *testing.B) {
	// nb=70 tile at acc=1e-4: the paper's per-tile compression workload
	rng := rand.New(rand.NewSource(1))
	a := dense.RandomDecay(rng, 70, 70, 0.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = RRQR(a, 1e-4)
	}
}
