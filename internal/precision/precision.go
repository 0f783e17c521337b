// Package precision implements the mixed-precision extension of the TLR
// format ([23, 24] in the paper: "tile low-rank compression and
// mixed-precision computations"): storing the compressed U/V bases in
// reduced precision — IEEE binary16 or bfloat16 — while computing in FP32,
// which halves the memory footprint the CS-2 must hold per PE. An adaptive
// policy keeps the energetic near-diagonal tiles in FP32 and demotes only
// the weak off-diagonal tiles.
//
// The float16 codecs are implemented from scratch with round-to-nearest-
// even, since the pipeline is stdlib-only.
package precision

import (
	"fmt"
	"math"

	"repro/internal/dense"
	"repro/internal/tlr"
)

// Format selects a storage precision for tile bases.
type Format int

const (
	// FP32 keeps bases in full single precision (4 B per real).
	FP32 Format = iota
	// FP16 stores bases as IEEE 754 binary16 (2 B per real).
	FP16
	// BF16 stores bases as bfloat16 (2 B per real).
	BF16
)

func (f Format) String() string {
	switch f {
	case FP32:
		return "fp32"
	case FP16:
		return "fp16"
	case BF16:
		return "bf16"
	}
	return "unknown"
}

// bytesPerReal returns the storage cost of one real scalar.
func (f Format) bytesPerReal() int {
	if f == FP32 {
		return 4
	}
	return 2
}

// F32ToF16 converts a float32 to IEEE binary16 bits with round-to-
// nearest-even, handling subnormals, overflow to infinity, and NaN.
func F32ToF16(x float32) uint16 {
	bits := math.Float32bits(x)
	sign := uint16(bits>>16) & 0x8000
	exp := int32((bits>>23)&0xFF) - 127 + 15
	mant := bits & 0x7FFFFF
	if (bits>>23)&0xFF == 0xFF {
		if mant != 0 {
			return sign | 0x7E00 // NaN
		}
		return sign | 0x7C00 // ±Inf
	}
	if exp >= 0x1F {
		return sign | 0x7C00 // overflow
	}
	if exp <= 0 {
		if exp < -10 {
			return sign // underflow to zero
		}
		// subnormal half
		m := mant | 0x800000
		shift := uint32(14 - exp)
		half := uint32(1) << (shift - 1)
		rem := m & ((uint32(1) << shift) - 1)
		res := m >> shift
		if rem > half || (rem == half && res&1 == 1) {
			res++
		}
		return sign | uint16(res)
	}
	// normal half with RNE on the dropped 13 bits
	res := mant >> 13
	rem := mant & 0x1FFF
	if rem > 0x1000 || (rem == 0x1000 && res&1 == 1) {
		res++
	}
	e := uint32(exp)
	if res == 0x400 {
		res = 0
		e++
		if e >= 0x1F {
			return sign | 0x7C00
		}
	}
	return sign | uint16(e<<10) | uint16(res)
}

// F16ToF32 expands IEEE binary16 bits to float32.
func F16ToF32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1F
	mant := uint32(h & 0x3FF)
	switch {
	case exp == 0x1F:
		if mant != 0 {
			return math.Float32frombits(sign | 0x7FC00000) // NaN
		}
		return math.Float32frombits(sign | 0x7F800000) // ±Inf
	case exp == 0:
		if mant == 0 {
			return math.Float32frombits(sign) // ±0
		}
		// subnormal: normalize
		for mant&0x400 == 0 {
			mant <<= 1
			exp--
		}
		mant &= 0x3FF
		exp++
		return math.Float32frombits(sign | (exp+127-15)<<23 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp+127-15)<<23 | mant<<13)
	}
}

// F32ToBF16 converts a float32 to bfloat16 bits with round-to-nearest-even.
func F32ToBF16(x float32) uint16 {
	bits := math.Float32bits(x)
	if bits&0x7F800000 == 0x7F800000 && bits&0x7FFFFF != 0 {
		return uint16(bits>>16) | 0x0040 // quieten NaN
	}
	r := bits + 0x7FFF + ((bits >> 16) & 1)
	return uint16(r >> 16)
}

// BF16ToF32 expands bfloat16 bits to float32.
func BF16ToF32(h uint16) float32 {
	return math.Float32frombits(uint32(h) << 16)
}

// roundThrough quantizes a value through the format and back.
func roundThrough(f Format, x float32) float32 {
	switch f {
	case FP16:
		return F16ToF32(F32ToF16(x))
	case BF16:
		return BF16ToF32(F32ToBF16(x))
	default:
		return x
	}
}

// Policy decides the storage format of each tile.
type Policy interface {
	// FormatFor returns the format of tile (i, j) of an mt×nt grid.
	FormatFor(i, j, mt, nt int) Format
}

// Uniform stores every tile in the same format.
type Uniform struct{ F Format }

// FormatFor implements Policy.
func (u Uniform) FormatFor(_, _, _, _ int) Format { return u.F }

// DiagonalBand keeps tiles within Band normalized diagonal distance in
// FP32 and demotes the rest to Demoted — the adaptive policy of [23]:
// energetic near-diagonal tiles keep full precision.
type DiagonalBand struct {
	Band    float64
	Demoted Format
}

// FormatFor implements Policy.
func (p DiagonalBand) FormatFor(i, j, mt, nt int) Format {
	d := math.Abs(float64(i)/float64(mt) - float64(j)/float64(nt))
	if d <= p.Band {
		return FP32
	}
	return p.Demoted
}

// Quantized is a TLR matrix whose bases have been rounded through a
// reduced-precision storage format (compute stays FP32, as on hardware
// with FP16 storage paths).
type Quantized struct {
	// T is the quantized operator, usable anywhere a tlr.Matrix is.
	T *tlr.Matrix
	// StoredBytes is the footprint under the reduced-precision layout.
	StoredBytes int64
	// Formats records each tile's storage format (row-major).
	Formats []Format
}

// Quantize rounds every tile base of t through the policy's formats and
// returns the quantized operator with its storage accounting. The input
// matrix is not modified.
func Quantize(t *tlr.Matrix, p Policy) (*Quantized, error) {
	if p == nil {
		return nil, fmt.Errorf("precision: nil policy")
	}
	out := &tlr.Matrix{M: t.M, N: t.N, NB: t.NB, MT: t.MT, NT: t.NT,
		Tiles: make([]*tlr.Tile, len(t.Tiles))}
	q := &Quantized{T: out, Formats: make([]Format, len(t.Tiles))}
	for i := 0; i < t.MT; i++ {
		for j := 0; j < t.NT; j++ {
			src := t.Tile(i, j)
			f := p.FormatFor(i, j, t.MT, t.NT)
			q.Formats[i*t.NT+j] = f
			u := quantizeMatrix(src.U, f)
			v := quantizeMatrix(src.V, f)
			out.Tiles[i*t.NT+j] = &tlr.Tile{U: u, V: v}
			elems := int64(src.U.Rows*src.U.Cols + src.V.Rows*src.V.Cols)
			q.StoredBytes += 2 * elems * int64(f.bytesPerReal()) // Re+Im
			if f != FP32 {
				q.StoredBytes += 8 // per-tile U and V scale factors
			}
		}
	}
	return q, nil
}

// quantizeMatrix rounds a matrix through the reduced format using a
// per-tile power-of-two scale factor, as production mixed-precision TLR
// does: seismic kernel values sit around 1e-5 — inside binary16's
// subnormal range where relative precision collapses — so the values are
// scaled into the normal range before rounding and scaled back after
// (both steps exact in FP32 for power-of-two factors).
func quantizeMatrix(a *dense.Matrix, f Format) *dense.Matrix {
	out := dense.New(a.Rows, a.Cols)
	if f == FP32 {
		out.CopyFrom(a)
		return out
	}
	maxAbs := a.MaxAbs()
	scale, inv := 1.0, 1.0
	if maxAbs > 0 {
		e := math.Ilogb(maxAbs)
		scale = math.Ldexp(1, -e) // brings maxAbs into [1, 2)
		inv = math.Ldexp(1, e)
	}
	for j := 0; j < a.Cols; j++ {
		src := a.Col(j)
		dst := out.Col(j)
		for i, v := range src {
			re := roundThrough(f, float32(float64(real(v))*scale))
			im := roundThrough(f, float32(float64(imag(v))*scale))
			dst[i] = complex(float32(float64(re)*inv), float32(float64(im)*inv))
		}
	}
	return out
}

// Savings returns the storage reduction versus FP32.
func (q *Quantized) Savings() float64 {
	full := q.T.CompressedBytes()
	if full == 0 {
		return 0
	}
	return 1 - float64(q.StoredBytes)/float64(full)
}
