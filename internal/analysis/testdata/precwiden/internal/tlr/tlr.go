// Package tlr is a fixture standing in for a kernel package (path
// suffix internal/tlr).
package tlr

// Silent widening inside hot loops is flagged.
func DotBad(x, y []float32) float64 {
	var s float64
	for i := range x {
		s += float64(x[i]) * float64(y[i]) // want `silent float32→float64 widening` `silent float32→float64 widening`
	}
	return s
}

func SumBad(z []complex64) complex128 {
	var s complex128
	for _, v := range z {
		s += complex128(v) // want `silent complex64→complex128 widening`
	}
	return s
}

// A complex64 product is a widening no conversion shows: gc computes it
// in float64. Flagged in loops, as `*` and as `*=`.
func AxpyBad(alpha complex64, x, y []complex64) {
	for i, v := range x {
		y[i] += alpha * v // want `complex64 product \(gc computes it in float64\)`
	}
}

func ScalBad(alpha complex64, x []complex64) {
	for i := range x {
		x[i] *= alpha // want `complex64 product \(gc computes it in float64\)`
	}
}

// The same product written out in float32 is what the loop should hold.
func ScalOK(alpha complex64, x []complex64) {
	ar, ai := real(alpha), imag(alpha)
	for i, v := range x {
		x[i] = complex(ar*real(v)-ai*imag(v), ar*imag(v)+ai*real(v))
	}
}

// Sums, real products, complex128 products and constant-folded
// products are not complex64 multiplies; outside a loop nothing is hot.
func NotProducts(x []complex64, z []complex128, s float32) complex64 {
	const twoI = 2 * 1i
	var acc complex64
	for i, v := range x {
		acc += v + twoI
		x[i] = complex(s*real(v), s*imag(v))
		z[i] = z[i] * z[i]
	}
	return acc * acc
}

// Line-level suppression covers products too.
func AxpyOK(alpha complex64, x, y []complex64) {
	for i, v := range x {
		y[i] += alpha * v //lint:widen-ok set-up path, bits pinned
	}
}

// Line-level suppression: same line.
func DotOKSameLine(x []float32) float64 {
	var s float64
	for i := range x {
		s += float64(x[i]) //lint:widen-ok deliberate float64 accumulator
	}
	return s
}

// Line-level suppression: the line above.
func DotOKLineAbove(x []float32) float64 {
	var s float64
	for i := range x {
		//lint:widen-ok deliberate float64 accumulator
		s += float64(x[i])
	}
	return s
}

// DocOK accumulates in float64 throughout; the function-doc marker
// exempts the whole body.
//
//lint:widen-ok this function is a deliberate float64 accumulator
func DocOK(x, y []float32) float64 {
	var s float64
	for i := range x {
		s += float64(x[i]) * float64(y[i])
	}
	return s
}

// Outside a loop, widening is not "hot" and is not flagged.
func Head(x []float32) float64 {
	if len(x) == 0 {
		return 0
	}
	return float64(x[0])
}

// Narrowing back down is never flagged.
func Narrow(v float64) float32 { return float32(v) }
