// Package dense provides a column-major dense complex64 matrix type with
// the constructors, views, and norms the compression and TLR layers build
// on. Column-major storage matches the stacked-bases layout of the paper
// (Fig. 4) and the fmac-friendly unit-stride columns of the CS-2 kernel.
package dense

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cfloat"
)

// Matrix is an m×n complex64 matrix stored column-major with leading
// dimension Stride (Stride >= Rows). A Matrix may be a view into a larger
// matrix's storage; Slice produces such views without copying.
type Matrix struct {
	Rows, Cols int
	Stride     int
	Data       []complex64
}

// New returns a zero m×n matrix with tight stride.
func New(m, n int) *Matrix {
	if m < 0 || n < 0 {
		panic("dense: negative dimension")
	}
	return &Matrix{Rows: m, Cols: n, Stride: max(1, m), Data: make([]complex64, m*n)}
}

// FromSlice wraps existing column-major data of an m×n matrix.
// The slice must hold at least m*n elements.
func FromSlice(m, n int, data []complex64) *Matrix {
	if len(data) < m*n {
		panic("dense: FromSlice data too short")
	}
	return &Matrix{Rows: m, Cols: n, Stride: max(1, m), Data: data}
}

// At returns element (i, j).
func (a *Matrix) At(i, j int) complex64 {
	if i < 0 || i >= a.Rows || j < 0 || j >= a.Cols {
		panic(fmt.Sprintf("dense: At(%d,%d) out of range %dx%d", i, j, a.Rows, a.Cols))
	}
	return a.Data[j*a.Stride+i]
}

// Set assigns element (i, j).
func (a *Matrix) Set(i, j int, v complex64) {
	if i < 0 || i >= a.Rows || j < 0 || j >= a.Cols {
		panic(fmt.Sprintf("dense: Set(%d,%d) out of range %dx%d", i, j, a.Rows, a.Cols))
	}
	a.Data[j*a.Stride+i] = v
}

// Col returns the j-th column as a length-Rows slice aliasing the matrix
// storage.
func (a *Matrix) Col(j int) []complex64 {
	if j < 0 || j >= a.Cols {
		panic("dense: Col out of range")
	}
	return a.Data[j*a.Stride : j*a.Stride+a.Rows]
}

// Slice returns the sub-matrix view rows [i0,i1) × cols [j0,j1) sharing
// storage with a.
func (a *Matrix) Slice(i0, i1, j0, j1 int) *Matrix {
	if i0 < 0 || i1 > a.Rows || j0 < 0 || j1 > a.Cols || i0 > i1 || j0 > j1 {
		panic("dense: Slice out of range")
	}
	return &Matrix{
		Rows:   i1 - i0,
		Cols:   j1 - j0,
		Stride: a.Stride,
		Data:   a.Data[j0*a.Stride+i0:],
	}
}

// Clone returns a tightly-packed deep copy of a.
func (a *Matrix) Clone() *Matrix {
	b := New(a.Rows, a.Cols)
	for j := 0; j < a.Cols; j++ {
		copy(b.Col(j), a.Col(j))
	}
	return b
}

// CopyFrom copies b's elements into a; shapes must match.
func (a *Matrix) CopyFrom(b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("dense: CopyFrom shape mismatch")
	}
	for j := 0; j < a.Cols; j++ {
		copy(a.Col(j), b.Col(j))
	}
}

// Zero clears all elements.
func (a *Matrix) Zero() {
	for j := 0; j < a.Cols; j++ {
		col := a.Col(j)
		for i := range col {
			col[i] = 0
		}
	}
}

// ConjTranspose returns a new matrix equal to aᴴ.
func (a *Matrix) ConjTranspose() *Matrix {
	b := New(a.Cols, a.Rows)
	for j := 0; j < a.Cols; j++ {
		col := a.Col(j)
		for i, v := range col {
			b.Data[i*b.Stride+j] = complex(real(v), -imag(v))
		}
	}
	return b
}

// frobNorm returns the Frobenius norm, accumulated in float64.
func (a *Matrix) frobNorm() float64 {
	var s float64
	for j := 0; j < a.Cols; j++ {
		for _, v := range a.Col(j) {
			r, i := float64(real(v)), float64(imag(v))
			s += r*r + i*i
		}
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest elementwise modulus.
func (a *Matrix) MaxAbs() float64 {
	var m float64
	for j := 0; j < a.Cols; j++ {
		for _, v := range a.Col(j) {
			if x := math.Hypot(float64(real(v)), float64(imag(v))); x > m {
				m = x
			}
		}
	}
	return m
}

// MulVec computes y = A x. y must have length Rows, x length Cols.
func (a *Matrix) MulVec(x, y []complex64) {
	cfloat.Gemv(cfloat.NoTrans, a.Rows, a.Cols, 1, a.Data, a.Stride, x, 0, y)
}

// MulVecConjTrans computes y = Aᴴ x. y must have length Cols, x length Rows.
func (a *Matrix) MulVecConjTrans(x, y []complex64) {
	cfloat.Gemv(cfloat.ConjTrans, a.Rows, a.Cols, 1, a.Data, a.Stride, x, 0, y)
}

// Mul computes C = A B into a freshly allocated matrix.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic("dense: Mul shape mismatch")
	}
	c := New(a.Rows, b.Cols)
	cfloat.Gemm(cfloat.NoTrans, a.Rows, b.Cols, a.Cols,
		a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
	return c
}

// sub returns A − B.
func sub(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("dense: Sub shape mismatch")
	}
	c := New(a.Rows, a.Cols)
	for j := 0; j < a.Cols; j++ {
		ca, cb, cc := a.Col(j), b.Col(j), c.Col(j)
		for i := range cc {
			cc[i] = ca[i] - cb[i]
		}
	}
	return c
}

// RelError returns ‖A−B‖F / ‖B‖F, the tile-accuracy measure used by the
// compression tolerance acc throughout the paper.
func RelError(a, b *Matrix) float64 {
	d := sub(a, b)
	nb := b.frobNorm()
	if nb == 0 {
		return d.frobNorm()
	}
	return d.frobNorm() / nb
}

// Random returns an m×n matrix with iid standard complex Gaussian entries.
func Random(rng *rand.Rand, m, n int) *Matrix {
	a := New(m, n)
	for i := range a.Data {
		a.Data[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	return a
}

// RandomDecay returns an m×n matrix whose singular values decay as
// sigma_k = decay^k, mimicking the data-sparse tiles of Hilbert-sorted
// seismic frequency matrices. Built from Gaussian factors with scaled
// columns, so the decay is approximate but monotone.
func RandomDecay(rng *rand.Rand, m, n int, decay float64) *Matrix {
	k := min(m, n)
	u := Random(rng, m, k)
	v := Random(rng, k, n)
	orthonormalizeCols(u)
	orthonormalizeRows(v)
	s := 1.0
	for j := 0; j < k; j++ {
		col := u.Col(j)
		cfloat.Scal(complex(float32(s), 0), col)
		s *= decay
	}
	return Mul(u, v)
}

func orthonormalizeCols(a *Matrix) {
	// Modified Gram–Schmidt; adequate for constructing test matrices.
	for j := 0; j < a.Cols; j++ {
		cj := a.Col(j)
		for p := 0; p < j; p++ {
			cp := a.Col(p)
			r := cfloat.Dotc(cp, cj)
			cfloat.Axpy(-r, cp, cj)
		}
		n := cfloat.Nrm2(cj)
		if n > 0 {
			cfloat.Scal(complex(float32(1/n), 0), cj)
		}
	}
}

func orthonormalizeRows(a *Matrix) {
	at := a.ConjTranspose()
	orthonormalizeCols(at)
	b := at.ConjTranspose()
	a.CopyFrom(b)
}

// Bytes returns the storage footprint of the matrix elements in bytes
// (8 bytes per complex64), counting the logical m×n extent.
func (a *Matrix) Bytes() int64 {
	return int64(a.Rows) * int64(a.Cols) * 8
}

func (a *Matrix) String() string {
	return fmt.Sprintf("dense.Matrix(%dx%d)", a.Rows, a.Cols)
}
