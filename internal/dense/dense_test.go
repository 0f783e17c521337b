package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	a := New(3, 4)
	if a.Rows != 3 || a.Cols != 4 || a.Stride != 3 {
		t.Fatalf("bad shape %+v", a)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if a.At(i, j) != 0 {
				t.Fatal("not zeroed")
			}
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	a := New(5, 5)
	a.Set(2, 3, 1+2i)
	if a.At(2, 3) != 1+2i {
		t.Fatal("Set/At mismatch")
	}
	if a.Data[3*5+2] != 1+2i {
		t.Fatal("column-major layout violated")
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestSliceView(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Random(rng, 8, 8)
	s := a.Slice(2, 5, 3, 7)
	if s.Rows != 3 || s.Cols != 4 {
		t.Fatalf("bad slice shape %dx%d", s.Rows, s.Cols)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if s.At(i, j) != a.At(i+2, j+3) {
				t.Fatal("slice view mismatch")
			}
		}
	}
	// Views share storage.
	s.Set(0, 0, 42)
	if a.At(2, 3) != 42 {
		t.Fatal("slice is not a view")
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Random(rng, 4, 4)
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) == 99 {
		t.Fatal("Clone shares storage")
	}
}

func TestConjTranspose(t *testing.T) {
	a := New(2, 3)
	a.Set(0, 1, 1+2i)
	b := a.ConjTranspose()
	if b.Rows != 3 || b.Cols != 2 {
		t.Fatal("bad transpose shape")
	}
	if b.At(1, 0) != 1-2i {
		t.Fatalf("ConjTranspose value %v", b.At(1, 0))
	}
}

func TestConjTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Random(rng, 6, 9)
	b := a.ConjTranspose().ConjTranspose()
	if RelError(b, a) > 1e-7 {
		t.Fatal("(Aᴴ)ᴴ != A")
	}
}

// identity returns the n×n identity.
func identity(n int) *Matrix {
	a := New(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	return a
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := Random(rng, 5, 7)
	i7 := identity(7)
	b := Mul(a, i7)
	if RelError(b, a) > 1e-6 {
		t.Fatal("A*I != A")
	}
	i5 := identity(5)
	c := Mul(i5, a)
	if RelError(c, a) > 1e-6 {
		t.Fatal("I*A != A")
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := Random(rng, 6, 4)
	x := Random(rng, 4, 1)
	y := make([]complex64, 6)
	a.MulVec(x.Data, y)
	ref := Mul(a, x)
	for i := 0; i < 6; i++ {
		d := y[i] - ref.At(i, 0)
		if math.Hypot(float64(real(d)), float64(imag(d))) > 1e-4 {
			t.Fatalf("MulVec mismatch at %d", i)
		}
	}
}

func TestAddSub(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := Random(rng, 3, 3)
	b := Random(rng, 3, 3)
	apb := New(3, 3)
	for i := range apb.Data {
		apb.Data[i] = a.Data[i] + b.Data[i]
	}
	c := sub(apb, b)
	if RelError(c, a) > 1e-6 {
		t.Fatal("(A+B)-B != A")
	}
}

func TestRelErrorZeroDenominator(t *testing.T) {
	a := New(2, 2)
	b := New(2, 2)
	if RelError(a, b) != 0 {
		t.Fatal("RelError(0,0) != 0")
	}
	a.Set(0, 0, 3)
	if RelError(a, b) != 3 {
		t.Fatal("RelError(A,0) should be ‖A‖")
	}
}

func TestRandomDecaySingularDecay(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := RandomDecay(rng, 20, 20, 0.5)
	// Frobenius norm should be close to sqrt(sum decay^{2k}) = sqrt(1/(1-0.25)).
	want := math.Sqrt(1 / (1 - 0.25))
	got := a.frobNorm()
	if math.Abs(got-want) > 0.05*want {
		t.Errorf("FrobNorm = %g, want ≈ %g", got, want)
	}
}

func TestBytes(t *testing.T) {
	a := New(70, 70)
	if a.Bytes() != 70*70*8 {
		t.Fatalf("Bytes = %d", a.Bytes())
	}
}

func TestMulVecConjTransAdjoint(t *testing.T) {
	// ⟨Ax, y⟩ == ⟨x, Aᴴy⟩ as a quick property.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 4+r.Intn(10), 4+r.Intn(10)
		a := Random(r, m, n)
		x := Random(r, n, 1).Data
		y := Random(r, m, 1).Data
		ax := make([]complex64, m)
		a.MulVec(x, ax)
		ahy := make([]complex64, n)
		a.MulVecConjTrans(y, ahy)
		var lhs, rhs complex128
		for i := 0; i < m; i++ {
			lhs += complex128(complex(real(y[i]), -imag(y[i]))) * complex128(ax[i])
		}
		for i := 0; i < n; i++ {
			rhs += complex128(complex(real(ahy[i]), -imag(ahy[i]))) * complex128(x[i])
		}
		d := lhs - rhs
		return math.Hypot(real(d), imag(d)) < 1e-2*(1+math.Hypot(real(lhs), imag(lhs)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestZero(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := Random(rng, 4, 4)
	a.Zero()
	if a.frobNorm() != 0 {
		t.Fatal("Zero left nonzeros")
	}
}

func TestMaxAbs(t *testing.T) {
	a := New(2, 2)
	a.Set(1, 1, 3+4i)
	if math.Abs(a.MaxAbs()-5) > 1e-6 {
		t.Fatalf("MaxAbs = %g", a.MaxAbs())
	}
}

func BenchmarkMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Random(rng, 128, 128)
	y := Random(rng, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Mul(x, y)
	}
}
