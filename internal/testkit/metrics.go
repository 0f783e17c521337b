package testkit

import (
	"math"
	"math/rand"

	"repro/internal/cfloat"
	"repro/internal/precision"
)

// RelErr returns ‖got − want‖₂ / ‖want‖₂ over complex vectors (the metric
// formerly duplicated as relErr in the lsqr and cgls tests). A zero want
// falls back to the absolute norm of the difference. A NaN anywhere gives
// +Inf, so an `e > tol` check fails on it rather than passing.
func RelErr(got, want []complex64) float64 {
	if len(got) != len(want) {
		panic("testkit: RelErr length mismatch")
	}
	d := make([]complex64, len(got))
	for i := range d {
		d[i] = got[i] - want[i]
	}
	e := cfloat.Nrm2(d)
	if nw := cfloat.Nrm2(want); nw != 0 {
		e /= nw
	}
	if math.IsNaN(e) {
		return math.Inf(1)
	}
	return e
}

// ulpDist32 returns the distance in representable float32 values between
// a and b, treating the floats as a continuum ordered by their sign-
// magnitude encoding. NaN against anything is MaxUint32.
func ulpDist32(a, b float32) uint32 {
	if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
		return math.MaxUint32
	}
	// map the float bits onto a monotone integer scale
	toOrd := func(f float32) int64 {
		u := math.Float32bits(f)
		if u&0x80000000 != 0 {
			return -int64(u & 0x7FFFFFFF)
		}
		return int64(u)
	}
	d := toOrd(a) - toOrd(b)
	if d < 0 {
		d = -d
	}
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// ULPDist returns the complex64 ULP distance between a and b: the larger
// of the real-part and imaginary-part float32 ULP distances.
func ULPDist(a, b complex64) uint32 {
	re := ulpDist32(real(a), real(b))
	im := ulpDist32(imag(a), imag(b))
	if im > re {
		return im
	}
	return re
}

// MaxULPDist returns the largest elementwise ULPDist over two vectors.
func MaxULPDist(got, want []complex64) uint32 {
	if len(got) != len(want) {
		panic("testkit: MaxULPDist length mismatch")
	}
	var m uint32
	for i := range got {
		if d := ULPDist(got[i], want[i]); d > m {
			m = d
		}
	}
	return m
}

// FormatEps returns the unit roundoff of a storage format: the relative
// precision a value survives a round trip through that format with.
func FormatEps(f precision.Format) float64 {
	switch f {
	case precision.FP16:
		return math.Ldexp(1, -11)
	case precision.BF16:
		return math.Ldexp(1, -8)
	default:
		return math.Ldexp(1, -24)
	}
}

// MVMTolerance derives the relative-error budget for comparing a
// compressed MVM against the dense reference (§5's accuracy-versus-
// compression tradeoff):
//
//	tol = C · (acc + (eps_fmt + eps_fp32)·√n)
//
// acc bounds the per-tile compression error (which the Frobenius-norm
// analysis carries to the full matrix), the eps·√n terms bound the
// accumulated rounding of n-length float32 reductions at the storage and
// compute precisions, and C = 8 is a safety factor absorbing the gap
// between norm-wise analysis and the realized random-vector error.
func MVMTolerance(n int, acc float64, f precision.Format) float64 {
	eps32 := math.Ldexp(1, -24)
	return 8 * (acc + (FormatEps(f)+eps32)*math.Sqrt(float64(n)))
}

// ExecTolerance bounds the disagreement between two implementations of
// the SAME compressed operator that differ only in float summation order
// (TLR-MVM vs the MDC operator vs the wsesim four-real-MVM path):
// a multiple of fp32 roundoff growing with the reduction length.
func ExecTolerance(n int) float64 {
	eps32 := math.Ldexp(1, -24)
	return 64 * eps32 * math.Sqrt(float64(n)+1)
}

// Operator is the structural shape of a matrix-free complex linear map,
// matching lsqr.Operator without importing it (so solver tests can stay
// in internal test packages while testkit remains import-cycle-free).
type Operator interface {
	Rows() int
	Cols() int
	Apply(x, y []complex64)
	ApplyAdjoint(x, y []complex64)
}

// AdjointGap measures the worst normalized violation of the adjoint
// identity ⟨Ax, y⟩ = ⟨x, Aᴴy⟩ over trials random vector pairs — the
// invariant LSQR and CGLS silently depend on; a forward/adjoint mismatch
// makes them diverge without crashing. A NaN gap is +Inf.
func AdjointGap(op Operator, rng *rand.Rand, trials int) float64 {
	m, n := op.Rows(), op.Cols()
	var worst float64
	ax := make([]complex64, m)
	aty := make([]complex64, n)
	for t := 0; t < trials; t++ {
		x := Vec(rng, n)
		y := Vec(rng, m)
		op.Apply(x, ax)
		op.ApplyAdjoint(y, aty)
		lhs := cfloat.Dotc(y, ax)  // ⟨y, Ax⟩
		rhs := cfloat.Dotc(aty, x) // ⟨Aᴴy, x⟩
		num := math.Hypot(float64(real(lhs-rhs)), float64(imag(lhs-rhs)))
		den := math.Hypot(float64(real(lhs)), float64(imag(lhs))) + 1
		g := num / den
		if math.IsNaN(g) {
			return math.Inf(1)
		}
		if g > worst {
			worst = g
		}
	}
	return worst
}
