package svd

import (
	"fmt"
	"math"
	"math/cmplx"
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

// reconstruct forms U·diag(S)·Vᴴ.
func reconstruct(d *SVD) *dense.Matrix {
	uk, vk := d.Truncate(len(d.S))
	return dense.Mul(uk, vk.ConjTranspose())
}

func TestDecomposeReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][2]int{{1, 1}, {5, 5}, {12, 7}, {7, 12}, {70, 70}, {70, 25}} {
		a := dense.Random(rng, dims[0], dims[1])
		d := Decompose(a)
		if err := dense.RelError(reconstruct(d), a); err > 1e-5 {
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
	if err := dense.RelError(reconstruct(d), a); err > 1e-6 {
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
	fn := frobNorm(a)
	if math.Abs(ss-fn*fn) > 1e-4*fn*fn {
		t.Errorf("Σs² = %g vs ‖A‖² = %g", ss, fn*fn)
	}
}

func TestRankDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, r := range []int{1, 4, 9} {
		a := dense.Mul(dense.Random(rng, 25, r), dense.Random(rng, r, 20))
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
		for i := range approx.Data {
			approx.Data[i] -= a.Data[i]
		}
		gotErr := frobNorm(approx)
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
	if err := dense.RelError(reconstruct(d), a); err > 1e-5 {
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
		return dense.RelError(reconstruct(d), a) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// oracleDecompose is the SVD without preconditioning: one-sided Jacobi
// rotations on the columns of A itself, stopped at 1e-14. It is the
// reference Decompose is held to.
func oracleDecompose(a *dense.Matrix) *SVD {
	if a.Rows < a.Cols {
		s := oracleDecompose(a.ConjTranspose())
		return &SVD{U: s.V, S: s.S, V: s.U}
	}
	m, n := a.Rows, a.Cols
	w := make([]complex128, m*n)
	for j := 0; j < n; j++ {
		for i, x := range a.Col(j) {
			w[j*m+i] = complex128(x)
		}
	}
	v := make([]complex128, n*n)
	for i := 0; i < n; i++ {
		v[i*n+i] = 1
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		converged := true
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				cp, cq := w[p*m:p*m+m], w[q*m:q*m+m]
				var app, aqq float64
				var apq complex128
				for i := range cp {
					app += real(cp[i])*real(cp[i]) + imag(cp[i])*imag(cp[i])
					aqq += real(cq[i])*real(cq[i]) + imag(cq[i])*imag(cq[i])
					apq += cmplx.Conj(cp[i]) * cq[i]
				}
				absApq := cmplx.Abs(apq)
				if absApq <= 1e-14*math.Sqrt(app*aqq) || absApq == 0 {
					continue
				}
				converged = false
				tau := (aqq - app) / (2 * absApq)
				t := 1 / (math.Abs(tau) + math.Sqrt(1+tau*tau))
				if tau < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(1+t*t)
				sp := complex(c*t, 0) * (apq / complex(absApq, 0))
				rotate(cp, cq, c, sp)
				rotate(v[p*n:p*n+n], v[q*n:q*n+n], c, sp)
			}
		}
		if converged {
			break
		}
	}
	idx := make([]int, n)
	s := make([]float64, n)
	for j := range idx {
		idx[j], s[j] = j, math.Sqrt(sumSq(w[j*m:j*m+m]))
	}
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if s[j] > s[best] {
				best = j
			}
		}
		s[i], s[best] = s[best], s[i]
		idx[i], idx[best] = idx[best], idx[i]
	}
	u, vv := dense.New(m, n), dense.New(n, n)
	for j, src := range idx {
		inv := 0.0
		if s[j] > 0 {
			inv = 1 / s[j]
		}
		for i := 0; i < m; i++ {
			x := w[src*m+i]
			u.Set(i, j, complex64(complex(real(x)*inv, imag(x)*inv)))
		}
		for i := 0; i < n; i++ {
			vv.Set(i, j, complex64(v[src*n+i]))
		}
	}
	return &SVD{U: u, S: s, V: vv}
}

// gradedTile is a test tile with geometrically decaying singular values,
// the shape Hilbert-sorted kernel tiles have.
type gradedTile struct {
	name string
	a    *dense.Matrix
}

func gradedTiles() []gradedTile {
	rng := rand.New(rand.NewSource(10))
	var out []gradedTile
	shapes := [][2]int{{8, 8}, {12, 12}, {16, 16}, {24, 24}, {25, 25}, {70, 70}, {24, 7}, {7, 24}, {24, 1}, {1, 24}}
	for _, decay := range []float64{0.3, 0.5, 0.7, 0.9} {
		for _, sh := range shapes {
			out = append(out, gradedTile{fmt.Sprintf("%dx%d/decay%g", sh[0], sh[1], decay), dense.RandomDecay(rng, sh[0], sh[1], decay)})
		}
	}
	rank1 := dense.Mul(dense.Random(rng, 24, 1), dense.Random(rng, 1, 24))
	// six distinct columns, each four times: every pivot choice is a tie
	repeated := dense.New(24, 24)
	six := dense.Random(rng, 24, 6)
	for j := 0; j < 24; j++ {
		copy(repeated.Col(j), six.Col(j%6))
	}
	return append(out, gradedTile{"zero", dense.New(24, 24)}, gradedTile{"rank1", rank1}, gradedTile{"repeated", repeated})
}

// c64 is the unit roundoff of the complex64 factors.
const c64 = 0x1p-24

// orthoError128 returns ‖QᴴQ − I‖F over the columns of q whose singular
// value is nonzero, in complex128; a zero singular value has a zero column.
func orthoError128(q *dense.Matrix, s []float64) float64 {
	var e float64
	for a := 0; a < q.Cols; a++ {
		for b := 0; b < q.Cols; b++ {
			if s[a] == 0 || s[b] == 0 {
				continue
			}
			var g complex128
			for i := 0; i < q.Rows; i++ {
				g += cmplx.Conj(complex128(q.At(i, a))) * complex128(q.At(i, b))
			}
			if a == b {
				g--
			}
			e += real(g)*real(g) + imag(g)*imag(g)
		}
	}
	return math.Sqrt(e)
}

// reconError128 returns ‖A − U·diag(S)·Vᴴ‖F / ‖A‖F in complex128
// (the absolute error for a zero A).
func reconError128(d *SVD, a *dense.Matrix) float64 {
	var num, den float64
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			x := complex128(a.At(i, j))
			for l, s := range d.S {
				x -= complex128(d.U.At(i, l)) * complex(s, 0) * cmplx.Conj(complex128(d.V.At(j, l)))
			}
			num += real(x)*real(x) + imag(x)*imag(x)
			y := a.At(i, j)
			den += float64(real(y)*real(y) + imag(y)*imag(y))
		}
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// checkFactors holds d to a thin SVD of a at complex64 resolution: S
// descending and nonnegative, U and V orthonormal, A reconstructed.
func checkFactors(t *testing.T, name string, d *SVD, a *dense.Matrix) {
	t.Helper()
	k := min(a.Rows, a.Cols)
	if len(d.S) != k || d.U.Rows != a.Rows || d.U.Cols != k || d.V.Rows != a.Cols || d.V.Cols != k {
		t.Fatalf("%s: shapes U %dx%d S %d V %dx%d", name, d.U.Rows, d.U.Cols, len(d.S), d.V.Rows, d.V.Cols)
	}
	for i, s := range d.S {
		if s < 0 || math.IsNaN(s) || (i > 0 && s > d.S[i-1]) {
			t.Fatalf("%s: S not descending and nonnegative at %d: %v", name, i, d.S)
		}
	}
	bound := 4 * float64(k) * c64
	if e := orthoError128(d.U, d.S); e > bound {
		t.Errorf("%s: ‖UᴴU − I‖F = %g > %g", name, e, bound)
	}
	if e := orthoError128(d.V, d.S); e > bound {
		t.Errorf("%s: ‖VᴴV − I‖F = %g > %g", name, e, bound)
	}
	if e := reconError128(d, a); e > bound {
		t.Errorf("%s: reconstruction error %g > %g", name, e, bound)
	}
}

// TestDecomposeMatchesOracle holds the preconditioned SVD to the
// unpreconditioned one on graded tiles: the same rank at every
// tolerance the builds use, singular values within 1e-12·σ₁, and
// factors that are a thin SVD at complex64 resolution.
func TestDecomposeMatchesOracle(t *testing.T) {
	for _, g := range gradedTiles() {
		d, o := Decompose(g.a), oracleDecompose(g.a)
		for _, tol := range []float64{1e-5, 1e-4, 1e-3} {
			if got, want := d.Rank(tol), o.Rank(tol); got != want {
				t.Errorf("%s: Rank(%g) = %d, oracle %d", g.name, tol, got, want)
			}
		}
		for i := range d.S {
			if diff := math.Abs(d.S[i] - o.S[i]); diff > 1e-12*o.S[0] {
				t.Errorf("%s: S[%d] = %g, oracle %g (|Δ| %g > 1e-12·σ₁)", g.name, i, d.S[i], o.S[i], diff)
			}
		}
		checkFactors(t, g.name, d, g.a)
	}
}

// TestPreconditioningCutsSweeps guards the preconditioning: on graded
// nb-24 tiles the Jacobi sweeps on Rᴴ average at most 6, where the
// sweeps on the tile itself take 14–15.
func TestPreconditioningCutsSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var total, tiles int
	for _, decay := range []float64{0.5, 0.7, 0.9} {
		for range 10 {
			_, sweeps := decompose(dense.RandomDecay(rng, 24, 24, decay))
			total += sweeps
			tiles++
		}
	}
	if mean := float64(total) / float64(tiles); mean > 6 {
		t.Errorf("mean Jacobi sweeps per graded nb-24 tile = %.2f, want <= 6", mean)
	}
}

// FuzzDecompose: on any shape up to 24×24 and any entry scale, Decompose
// returns a thin SVD at complex64 resolution.
func FuzzDecompose(f *testing.F) {
	f.Add(int64(1), uint8(23), uint8(23), int8(0))
	f.Add(int64(2), uint8(0), uint8(17), int8(-30))
	f.Add(int64(3), uint8(11), uint8(0), int8(30))
	f.Fuzz(func(t *testing.T, seed int64, mRaw, nRaw uint8, exp int8) {
		m, n := int(mRaw%24)+1, int(nRaw%24)+1
		scale := math.Ldexp(1, int(exp)%40)
		rng := rand.New(rand.NewSource(seed))
		a := dense.New(m, n)
		for i := range a.Data {
			a.Data[i] = complex64(complex((2*rng.Float64()-1)*scale, (2*rng.Float64()-1)*scale))
		}
		checkFactors(t, fmt.Sprintf("%dx%d scale %g", m, n, scale), Decompose(a), a)
	})
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

// BenchmarkDecomposeGraded is the per-tile cost the builds pay: square
// tiles at nb 8, 16 and 24 with singular values decaying by 0.6.
func BenchmarkDecomposeGraded(b *testing.B) {
	for _, nb := range []int{8, 16, 24} {
		a := dense.RandomDecay(rand.New(rand.NewSource(1)), nb, nb, 0.6)
		b.Run(fmt.Sprintf("nb%d", nb), func(b *testing.B) {
			for b.Loop() {
				_ = Decompose(a)
			}
		})
	}
}
