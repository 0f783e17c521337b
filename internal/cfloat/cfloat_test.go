package cfloat_test

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/cfloat"
	"repro/internal/testkit"
)

func cAbs(v complex64) float64 {
	return math.Hypot(float64(real(v)), float64(imag(v)))
}

func TestAxpy(t *testing.T) {
	x := []complex64{1, 2i, 3 + 4i}
	y := []complex64{1, 1, 1}
	cfloat.Axpy(2, x, y)
	want := []complex64{3, 1 + 4i, 7 + 8i}
	for i := range y {
		if y[i] != want[i] {
			t.Errorf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestAxpyZeroAlphaNoop(t *testing.T) {
	x := []complex64{5, 6}
	y := []complex64{1, 2}
	cfloat.Axpy(0, x, y)
	if y[0] != 1 || y[1] != 2 {
		t.Errorf("cfloat.Axpy(0,..) changed y: %v", y)
	}
}

func TestAxpyLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cfloat.Axpy(1, make([]complex64, 2), make([]complex64, 3))
}

func TestScal(t *testing.T) {
	x := []complex64{1 + 1i, 2}
	cfloat.Scal(2i, x)
	if x[0] != complex64(-2+2i) || x[1] != complex64(4i) {
		t.Errorf("cfloat.Scal result %v", x)
	}
}

func TestDotcConjugatesFirstArgument(t *testing.T) {
	x := []complex64{1i}
	y := []complex64{1i}
	// conj(i)*i = -i*i = 1
	if got := cfloat.Dotc(x, y); got != 1 {
		t.Errorf("cfloat.Dotc = %v, want 1", got)
	}
}

func TestDotcHermitianSymmetry(t *testing.T) {
	rng := testkit.NewRNG(1)
	x := testkit.Vec(rng, 57)
	y := testkit.Vec(rng, 57)
	a := cfloat.Dotc(x, y)
	b := cfloat.Dotc(y, x)
	// cfloat.Dotc(x,y) == conj(cfloat.Dotc(y,x))
	if !(cAbs(a-complex(real(b), -imag(b))) <= 1e-4*cAbs(a)) {
		t.Errorf("Hermitian symmetry violated: %v vs %v", a, b)
	}
}

func TestNrm2MatchesDotc(t *testing.T) {
	rng := testkit.NewRNG(2)
	x := testkit.Vec(rng, 101)
	n := cfloat.Nrm2(x)
	d := cfloat.Dotc(x, x)
	if !(math.Abs(n*n-float64(real(d))) <= 1e-3*n*n) {
		t.Errorf("Nrm2²=%v vs cfloat.Dotc=%v", n*n, real(d))
	}
	if !(math.Abs(float64(imag(d))) <= 1e-3*n*n) {
		t.Errorf("cfloat.Dotc(x,x) has imaginary part %v", imag(d))
	}
}

func TestNrm2Empty(t *testing.T) {
	if cfloat.Nrm2(nil) != 0 {
		t.Error("cfloat.Nrm2(nil) != 0")
	}
}

// reference dense gemv in complex128 for comparison
func refGemv(t cfloat.Trans, m, n int, a []complex64, lda int, x []complex64) []complex64 {
	var rows, cols int
	switch t {
	case cfloat.NoTrans:
		rows, cols = m, n
	default:
		rows, cols = n, m
	}
	y := make([]complex64, rows)
	for i := 0; i < rows; i++ {
		var acc complex128
		for j := 0; j < cols; j++ {
			var aij complex64
			switch t {
			case cfloat.NoTrans:
				aij = a[j*lda+i]
			case cfloat.ConjTrans:
				v := a[i*lda+j]
				aij = complex(real(v), -imag(v))
			}
			acc += complex128(aij) * complex128(x[j])
		}
		y[i] = complex64(acc)
	}
	return y
}

func TestGemvAgainstReference(t *testing.T) {
	rng := testkit.NewRNG(4)
	for _, tr := range []cfloat.Trans{cfloat.NoTrans, cfloat.ConjTrans} {
		for _, dims := range [][2]int{{1, 1}, {3, 7}, {16, 16}, {70, 25}, {25, 70}} {
			m, n := dims[0], dims[1]
			a := testkit.Vec(rng, m*n)
			xin := n
			if tr != cfloat.NoTrans {
				xin = m
			}
			x := testkit.Vec(rng, xin)
			yout := m
			if tr != cfloat.NoTrans {
				yout = n
			}
			y := make([]complex64, yout)
			cfloat.Gemv(tr, m, n, 1, a, m, x, 0, y)
			want := refGemv(tr, m, n, a, m, x)
			for i := range y {
				if !(cAbs(y[i]-want[i]) <= 1e-3*(1+cAbs(want[i]))) {
					t.Fatalf("%v %dx%d: y[%d]=%v want %v", tr, m, n, i, y[i], want[i])
				}
			}
		}
	}
}

func TestGemvAlphaBeta(t *testing.T) {
	rng := testkit.NewRNG(5)
	m, n := 9, 5
	a := testkit.Vec(rng, m*n)
	x := testkit.Vec(rng, n)
	y0 := testkit.Vec(rng, m)
	y := append([]complex64(nil), y0...)
	alpha, beta := complex64(2-1i), complex64(0.5i)
	cfloat.Gemv(cfloat.NoTrans, m, n, alpha, a, m, x, beta, y)
	ref := refGemv(cfloat.NoTrans, m, n, a, m, x)
	for i := range y {
		want := alpha*ref[i] + beta*y0[i]
		if !(cAbs(y[i]-want) <= 1e-3*(1+cAbs(want))) {
			t.Fatalf("alpha/beta: y[%d]=%v want %v", i, y[i], want)
		}
	}
}

func TestGemvLeadingDimension(t *testing.T) {
	rng := testkit.NewRNG(6)
	m, n, lda := 4, 3, 7
	a := testkit.Vec(rng, lda*n)
	x := testkit.Vec(rng, n)
	y := make([]complex64, m)
	cfloat.Gemv(cfloat.NoTrans, m, n, 1, a, lda, x, 0, y)
	for i := 0; i < m; i++ {
		var acc complex128
		for j := 0; j < n; j++ {
			acc += complex128(a[j*lda+i]) * complex128(x[j])
		}
		if !(cAbs(y[i]-complex64(acc)) <= 1e-3*(1+cAbs(complex64(acc)))) {
			t.Fatalf("lda: y[%d]=%v want %v", i, y[i], acc)
		}
	}
}

// gemvCase is one Gemv call checked against a complex128 loop. zeroEvery
// > 0 zeroes every zeroEvery-th element of x. Rows m..lda of A are NaN —
// Gemv must never read them — and so is y going in when beta == 0, which
// overwrites without reading.
type gemvCase struct {
	tr          cfloat.Trans
	m, n, lda   int
	alpha, beta complex64
	zeroEvery   int
	seed        int64
}

// operands builds the case's A, x and y₀ from its seed, and the y Gemv
// is handed: y₀, or all NaN when beta == 0.
func (c gemvCase) operands() (a, x, y0, y []complex64) {
	rng := testkit.NewRNG(c.seed)
	nan := complex(float32(math.NaN()), float32(math.NaN()))
	a = make([]complex64, c.lda*c.n)
	for j := 0; j < c.n; j++ {
		copy(a[j*c.lda:], testkit.Vec(rng, c.m))
		for i := c.m; i < c.lda; i++ {
			a[j*c.lda+i] = nan
		}
	}
	xlen, ylen := c.n, c.m
	if c.tr == cfloat.ConjTrans {
		xlen, ylen = c.m, c.n
	}
	x = testkit.Vec(rng, xlen)
	for i := 0; c.zeroEvery > 0 && i < xlen; i += c.zeroEvery {
		x[i] = 0
	}
	y0 = testkit.Vec(rng, ylen)
	y = append([]complex64(nil), y0...)
	if c.beta == 0 {
		for i := range y {
			y[i] = nan
		}
	}
	return a, x, y0, y
}

// sameBits is the index of the first element where got and want differ
// as float32 bit patterns, every NaN equal to every NaN, or -1.
func sameBits(got, want []complex64) int {
	eq := func(u, v float32) bool {
		if u != u || v != v {
			return u != u && v != v
		}
		return math.Float32bits(u) == math.Float32bits(v)
	}
	for i := range want {
		if !eq(real(got[i]), real(want[i])) || !eq(imag(got[i]), imag(want[i])) {
			return i
		}
	}
	return -1
}

// bitsDiffer runs the case through Gemv and through the pure-Go loops and
// returns the first element where they differ (sameBits), or -1.
func (c gemvCase) bitsDiffer() int {
	a, x, _, y := c.operands()
	want := append([]complex64(nil), y...)
	cfloat.Gemv(c.tr, c.m, c.n, c.alpha, a, c.lda, x, c.beta, y)
	cfloat.GemvGo(c.tr, c.m, c.n, c.alpha, a, c.lda, x, c.beta, want)
	return sameBits(y, want)
}

// err returns the error of the case normalised by what a backward-stable
// product is bounded by, |alpha|·‖A‖_F·‖x‖ + |beta|·‖y₀‖ — never by ‖y‖,
// which cancels — together with the reduction length its float32 sums
// run over.
func (c gemvCase) err() (e float64, reduce int) {
	a, x, y0, y := c.operands()
	xlen, ylen := len(x), len(y)
	cfloat.Gemv(c.tr, c.m, c.n, c.alpha, a, c.lda, x, c.beta, y)

	var num, anorm float64
	for k := 0; k < ylen; k++ {
		var acc complex128
		for l := 0; l < xlen; l++ {
			var v complex128
			if c.tr == cfloat.ConjTrans {
				v = cmplx.Conj(complex128(a[k*c.lda+l]))
			} else {
				v = complex128(a[l*c.lda+k])
			}
			anorm += real(v)*real(v) + imag(v)*imag(v)
			acc += v * complex128(x[l])
		}
		want := complex128(c.alpha) * acc
		if c.beta != 0 {
			want += complex128(c.beta) * complex128(y0[k])
		}
		d := cmplx.Abs(complex128(y[k]) - want)
		if math.IsNaN(d) {
			return math.Inf(1), xlen
		}
		num += d * d
	}
	den := cAbs(c.alpha) * math.Sqrt(anorm) * cfloat.Nrm2(x)
	if c.beta != 0 {
		den += cAbs(c.beta) * cfloat.Nrm2(y0)
	}
	if den == 0 {
		return math.Sqrt(num), xlen
	}
	return math.Sqrt(num) / den, xlen
}

// TestGemvBlockedTable walks the column-blocked float32 loops over every
// shape class they distinguish: each residue of n modulo any block width
// up to 8, the tile heights of the workloads, a padded leading
// dimension, general alpha, the three beta branches, and zeros in x.
func TestGemvBlockedTable(t *testing.T) {
	var seed int64
	for _, tr := range []cfloat.Trans{cfloat.NoTrans, cfloat.ConjTrans} {
		for _, m := range []int{1, 7, 24, 64} {
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 25} {
				for _, pad := range []int{0, 3} {
					for _, alpha := range []complex64{1, 0.5 - 2i} {
						for _, beta := range []complex64{0, 1, -0.25 + 0.5i} {
							for _, zeroEvery := range []int{0, 3} {
								seed++
								c := gemvCase{tr, m, n, max(1, m) + pad, alpha, beta, zeroEvery, seed}
								if e, reduce := c.err(); !(e <= testkit.ExecTolerance(reduce)) {
									t.Errorf("%+v: error %g of ‖A‖‖x‖ > %g", c, e, testkit.ExecTolerance(reduce))
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestGemvNoColumnSkipped pins the zero-entry semantics: a zero in x
// still multiplies its column, so an Inf in A surfaces as NaN (0·Inf)
// wherever the column lands in a block, in both directions.
func TestGemvNoColumnSkipped(t *testing.T) {
	const m, n = 3, 5
	for bad := 0; bad < n; bad++ {
		a := make([]complex64, m*n)
		for i := range a {
			a[i] = 1
		}
		a[bad*m+1] = complex(float32(math.Inf(1)), 0)
		x := []complex64{1, 1, 1, 1, 1}
		x[bad] = 0
		y := make([]complex64, m)
		cfloat.Gemv(cfloat.NoTrans, m, n, 1, a, m, x, 0, y)
		if v := y[1]; !math.IsNaN(float64(real(v))) {
			t.Errorf("NoTrans: zero x[%d] skipped its Inf column: y[1] = %v", bad, v)
		}
		if y[0] != 4 || y[2] != 4 {
			t.Errorf("NoTrans: finite rows %v, %v, want 4", y[0], y[2])
		}
		xc := []complex64{1, 0, 1}
		yc := make([]complex64, n)
		cfloat.Gemv(cfloat.ConjTrans, m, n, 1, a, m, xc, 0, yc)
		for j, v := range yc {
			if isNaN := math.IsNaN(float64(real(v))); isNaN != (j == bad) {
				t.Errorf("ConjTrans: Inf in column %d, y[%d] = %v", bad, j, v)
			}
		}
	}
}

func TestGemmAgainstGemv(t *testing.T) {
	// C = A*B column by column must equal cfloat.Gemv of each column of B.
	rng := testkit.NewRNG(7)
	m, k, n := 8, 6, 4
	a := testkit.Vec(rng, m*k)
	b := testkit.Vec(rng, k*n)
	c := make([]complex64, m*n)
	cfloat.Gemm(cfloat.NoTrans, m, n, k, a, m, b, k, 0, c, m)
	for j := 0; j < n; j++ {
		y := make([]complex64, m)
		cfloat.Gemv(cfloat.NoTrans, m, k, 1, a, m, b[j*k:(j+1)*k], 0, y)
		for i := 0; i < m; i++ {
			if !(cAbs(c[j*m+i]-y[i]) <= 1e-3*(1+cAbs(y[i]))) {
				t.Fatalf("cfloat.Gemm vs cfloat.Gemv at (%d,%d)", i, j)
			}
		}
	}
}

func TestGemmConjTransIsHermitianAdjoint(t *testing.T) {
	// (Aᴴ A) must be Hermitian with nonnegative real diagonal.
	rng := testkit.NewRNG(8)
	m, n := 12, 5
	a := testkit.Vec(rng, m*n)
	c := make([]complex64, n*n)
	cfloat.Gemm(cfloat.ConjTrans, n, n, m, a, m, a, m, 0, c, n)
	for i := 0; i < n; i++ {
		if !(real(c[i*n+i]) >= 0) || !(math.Abs(float64(imag(c[i*n+i]))) <= 1e-3) {
			t.Errorf("diagonal %d = %v not real nonneg", i, c[i*n+i])
		}
		for j := 0; j < n; j++ {
			cij := c[j*n+i]
			cji := c[i*n+j]
			if !(cAbs(cij-complex(real(cji), -imag(cji))) <= 1e-3*(1+cAbs(cij))) {
				t.Fatalf("not Hermitian at (%d,%d)", i, j)
			}
		}
	}
}

func TestGemmTransposeComposition(t *testing.T) {
	// ConjTrans on A (k×m stored) is NoTrans on Aᴴ written out
	rng := testkit.NewRNG(9)
	m, k, n := 5, 7, 6
	a := testkit.Vec(rng, k*m)
	b := testkit.Vec(rng, k*n)
	ahb := make([]complex64, m*n)
	cfloat.Gemm(cfloat.ConjTrans, m, n, k, a, k, b, k, 0, ahb, m)
	ah := make([]complex64, m*k)
	for i := 0; i < m; i++ {
		for l := 0; l < k; l++ {
			v := a[i*k+l]
			ah[l*m+i] = complex(real(v), -imag(v))
		}
	}
	want := make([]complex64, m*n)
	cfloat.Gemm(cfloat.NoTrans, m, n, k, ah, m, b, k, 0, want, m)
	for i := range want {
		if !(cAbs(ahb[i]-want[i]) <= 1e-3*(1+cAbs(want[i]))) {
			t.Fatalf("AᴴB at %d: ConjTrans %v, written-out Aᴴ %v", i, ahb[i], want[i])
		}
	}
}

// TestSplitMergeRoundTrip checks SplitReIm against real and imag
// directly.
func TestSplitMergeRoundTrip(t *testing.T) {
	rng := testkit.NewRNG(10)
	x := testkit.Vec(rng, 41)
	re := make([]float32, len(x))
	im := make([]float32, len(x))
	cfloat.SplitReIm(x, re, im)
	for i, v := range x {
		if re[i] != real(v) || im[i] != imag(v) {
			t.Fatalf("round trip failed at %d", i)
		}
	}
}

// fourReal is the §6.6 decomposition of a complex MVM that wsesim's PEs
// run, spelled out on RealGemv over split planes:
//
//	Re(y) = Ar·xr − Ai·xi
//	Im(y) = Ar·xi + Ai·xr
func fourReal(m, n int, ar, ai []float32, x []complex64) []complex64 {
	xr, xi := make([]float32, n), make([]float32, n)
	cfloat.SplitReIm(x, xr, xi)
	yr, yi, t := make([]float32, m), make([]float32, m), make([]float32, m)
	cfloat.RealGemv(m, n, ar, m, xr, yr)
	cfloat.RealGemv(m, n, ai, m, xi, t)
	cfloat.RealGemv(m, n, ar, m, xi, yi)
	cfloat.RealGemv(m, n, ai, m, xr, yi)
	y := make([]complex64, m)
	for i := range y {
		y[i] = complex(yr[i]-t[i], yi[i])
	}
	return y
}

// TestComplexMVMViaFourRealMatchesGemv holds the four-real decomposition
// on RealGemv to the complex Gemv.
func TestComplexMVMViaFourRealMatchesGemv(t *testing.T) {
	rng := testkit.NewRNG(11)
	for _, dims := range [][2]int{{1, 1}, {7, 3}, {70, 25}, {32, 64}} {
		m, n := dims[0], dims[1]
		a := testkit.Vec(rng, m*n)
		ar := make([]float32, m*n)
		ai := make([]float32, m*n)
		cfloat.SplitReIm(a, ar, ai)
		x := testkit.Vec(rng, n)
		y1 := make([]complex64, m)
		cfloat.Gemv(cfloat.NoTrans, m, n, 1, a, m, x, 0, y1)
		y2 := fourReal(m, n, ar, ai, x)
		for i := range y1 {
			if !(cAbs(y1[i]-y2[i]) <= 1e-3*(1+cAbs(y1[i]))) {
				t.Fatalf("%dx%d four-real mismatch at %d: %v vs %v", m, n, i, y1[i], y2[i])
			}
		}
	}
}

func TestTransString(t *testing.T) {
	if cfloat.NoTrans.String() != "N" || cfloat.ConjTrans.String() != "C" {
		t.Error("cfloat.Trans.String broken")
	}
	if cfloat.Trans(99).String() != "?" {
		t.Error("unknown cfloat.Trans should print ?")
	}
}

// Property: cfloat.Gemv is linear in x.
func TestGemvLinearityProperty(t *testing.T) {
	rng := testkit.NewRNG(12)
	m, n := 10, 8
	a := testkit.Vec(rng, m*n)
	f := func(seed int64) bool {
		r := testkit.NewRNG(seed)
		x1 := testkit.Vec(r, n)
		x2 := testkit.Vec(r, n)
		sum := make([]complex64, n)
		for i := range sum {
			sum[i] = x1[i] + x2[i]
		}
		y1 := make([]complex64, m)
		y2 := make([]complex64, m)
		ys := make([]complex64, m)
		cfloat.Gemv(cfloat.NoTrans, m, n, 1, a, m, x1, 0, y1)
		cfloat.Gemv(cfloat.NoTrans, m, n, 1, a, m, x2, 0, y2)
		cfloat.Gemv(cfloat.NoTrans, m, n, 1, a, m, sum, 0, ys)
		for i := 0; i < m; i++ {
			if !(cAbs(ys[i]-(y1[i]+y2[i])) <= 1e-2*(1+cAbs(ys[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: ⟨A x, y⟩ = ⟨x, Aᴴ y⟩ (adjoint identity), the invariant LSQR
// and the MDC operator rely on.
func TestGemvAdjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := testkit.NewRNG(seed)
		m := 3 + r.Intn(20)
		n := 3 + r.Intn(20)
		a := testkit.Vec(r, m*n)
		x := testkit.Vec(r, n)
		y := testkit.Vec(r, m)
		ax := make([]complex64, m)
		cfloat.Gemv(cfloat.NoTrans, m, n, 1, a, m, x, 0, ax)
		aty := make([]complex64, n)
		cfloat.Gemv(cfloat.ConjTrans, m, n, 1, a, m, y, 0, aty)
		lhs := cfloat.Dotc(y, ax)  // ⟨y, Ax⟩
		rhs := cfloat.Dotc(aty, x) // ⟨Aᴴy, x⟩
		return cAbs(lhs-rhs) < 1e-2*(1+cAbs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGemvNoTrans256(b *testing.B) {
	rng := testkit.NewRNG(1)
	m, n := 256, 256
	a := testkit.Vec(rng, m*n)
	x := testkit.Vec(rng, n)
	y := make([]complex64, m)
	b.SetBytes(int64(8 * m * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfloat.Gemv(cfloat.NoTrans, m, n, 1, a, m, x, 0, y)
	}
}

// BenchmarkAxpy times Axpy at survey synthesis's column length (192,
// the solve-survey receivers) and reports ns per element.
func BenchmarkAxpy(b *testing.B) {
	rng := testkit.NewRNG(1)
	const n = 192
	x := testkit.Vec(rng, n)
	y := make([]complex64, n)
	b.SetBytes(int64(16 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfloat.Axpy(0.5-0.25i, x, y)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
}

func TestGemmBetaPaths(t *testing.T) {
	rng := testkit.NewRNG(14)
	m, k, n := 4, 3, 4
	a := testkit.Vec(rng, m*k)
	b := testkit.Vec(rng, k*n)
	c0 := testkit.Vec(rng, m*n)
	// beta = 1 accumulates
	c := append([]complex64(nil), c0...)
	cfloat.Gemm(cfloat.NoTrans, m, n, k, a, m, b, k, 1, c, m)
	ab := make([]complex64, m*n)
	cfloat.Gemm(cfloat.NoTrans, m, n, k, a, m, b, k, 0, ab, m)
	for i := range c {
		if !(cAbs(c[i]-(c0[i]+ab[i])) <= 1e-3*(1+cAbs(c[i]))) {
			t.Fatalf("beta=1 at %d", i)
		}
	}
	// beta = 2i scales, and an empty inner dimension adds nothing
	c2 := append([]complex64(nil), c0...)
	cfloat.Gemm(cfloat.NoTrans, m, n, 0, a, m, b, k, 2i, c2, m)
	for i := range c2 {
		if !(cAbs(c2[i]-2i*c0[i]) <= 1e-4*(1+cAbs(c2[i]))) {
			t.Fatalf("beta=2i at %d", i)
		}
	}
}

func TestGemvPanics(t *testing.T) {
	// a is one element short of 3 columns of lda 3; the first two columns
	// fit, so a product that started before checking would have written y
	yN := []complex64{1, 2, 3}
	yC := []complex64{4, 5, 6}
	for name, f := range map[string]func(){
		"shortMatrixN": func() {
			cfloat.Gemv(cfloat.NoTrans, 3, 3, 1, make([]complex64, 8), 3, make([]complex64, 3), 2, yN)
		},
		"shortMatrixC": func() {
			cfloat.Gemv(cfloat.ConjTrans, 3, 3, 1, make([]complex64, 8), 3, make([]complex64, 3), 2, yC)
		},
		"badDims": func() { cfloat.Gemv(cfloat.NoTrans, -1, 2, 1, nil, 1, nil, 0, nil) },
		"shortVec": func() {
			cfloat.Gemv(cfloat.NoTrans, 2, 2, 1, make([]complex64, 4), 2, make([]complex64, 1), 0, make([]complex64, 2))
		},
		"shortOutT": func() {
			cfloat.Gemv(cfloat.ConjTrans, 2, 2, 1, make([]complex64, 4), 2, make([]complex64, 2), 0, make([]complex64, 1))
		},
		"badTrans": func() {
			cfloat.Gemv(cfloat.Trans(9), 2, 2, 1, make([]complex64, 4), 2, make([]complex64, 2), 0, make([]complex64, 2))
		},
		"gemmDims": func() { cfloat.Gemm(cfloat.NoTrans, -1, 1, 1, nil, 1, nil, 1, 0, nil, 1) },
		"gemmTrans": func() {
			cfloat.Gemm(cfloat.Trans(9), 1, 1, 1, make([]complex64, 1), 1, make([]complex64, 1), 1, 0, make([]complex64, 1), 1)
		},
		"realGemv": func() { cfloat.RealGemv(2, 2, make([]float32, 4), 1, make([]float32, 2), make([]float32, 2)) },
		"split":    func() { cfloat.SplitReIm(make([]complex64, 2), make([]float32, 1), make([]float32, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
	if yN[0] != 1 || yN[1] != 2 || yN[2] != 3 || yC[0] != 4 || yC[1] != 5 || yC[2] != 6 {
		t.Errorf("a Gemv that panicked on a short matrix wrote y: %v, %v", yN, yC)
	}
}
