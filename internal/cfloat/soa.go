package cfloat

// Structure-of-arrays (SoA) GEMV kernels. The complex matrix is stored as
// two float32 planes (real and imaginary, column-major with a shared
// leading dimension), split once at layout-conversion time rather than
// once per product. The inner loops are contiguous stride-1 float32 FMA
// chains over four columns at a time: the four-way unroll amortizes the
// y (or x) traffic over four columns, which is what moves a short-fat
// GEMV from call-overhead-bound toward the bandwidth roofline. These are
// the primitives behind the SoA TLR-MVM paths (internal/tlr/soa.go),
// which split and merge the vector endpoints once per product.

// GemvSoAAcc accumulates y += A x over split planes: A is m×n column-major
// in (ar, ai) with leading dimension lda, x is (xr, xi) of length n, and y
// is (yr, yi) of length m. Callers clear (or seed) yr/yi and merge back to
// complex64 once per product, so blocked panel sweeps can chain calls
// without touching the output planes in between.
func GemvSoAAcc(m, n int, ar, ai []float32, lda int, xr, xi, yr, yi []float32) {
	if lda < max(1, m) || len(xr) < n || len(xi) < n || len(yr) < m || len(yi) < m {
		panic("cfloat: GemvSoAAcc bad dimensions")
	}
	yr, yi = yr[:m], yi[:m]
	c := 0
	for ; c+4 <= n; c += 4 {
		x0r, x0i := xr[c], xi[c]
		x1r, x1i := xr[c+1], xi[c+1]
		x2r, x2i := xr[c+2], xi[c+2]
		x3r, x3i := xr[c+3], xi[c+3]
		a0r := ar[c*lda : c*lda+m]
		a0i := ai[c*lda : c*lda+m]
		a1r := ar[(c+1)*lda : (c+1)*lda+m]
		a1i := ai[(c+1)*lda : (c+1)*lda+m]
		a2r := ar[(c+2)*lda : (c+2)*lda+m]
		a2i := ai[(c+2)*lda : (c+2)*lda+m]
		a3r := ar[(c+3)*lda : (c+3)*lda+m]
		a3i := ai[(c+3)*lda : (c+3)*lda+m]
		for i := range yr {
			v0r, v0i := a0r[i], a0i[i]
			v1r, v1i := a1r[i], a1i[i]
			v2r, v2i := a2r[i], a2i[i]
			v3r, v3i := a3r[i], a3i[i]
			yr[i] += v0r*x0r - v0i*x0i + v1r*x1r - v1i*x1i +
				v2r*x2r - v2i*x2i + v3r*x3r - v3i*x3i
			yi[i] += v0r*x0i + v0i*x0r + v1r*x1i + v1i*x1r +
				v2r*x2i + v2i*x2r + v3r*x3i + v3i*x3r
		}
	}
	for ; c < n; c++ {
		xcr, xci := xr[c], xi[c]
		if xcr == 0 && xci == 0 {
			continue
		}
		acr := ar[c*lda : c*lda+m]
		aci := ai[c*lda : c*lda+m]
		for i := range yr {
			vr, vi := acr[i], aci[i]
			yr[i] += vr*xcr - vi*xci
			yi[i] += vr*xci + vi*xcr
		}
	}
}

// GemvConjSoAAcc accumulates y += Aᴴ x over split planes: A is m×n
// column-major in (ar, ai) with leading dimension lda, x is (xr, xi) of
// length m, and y is (yr, yi) of length n. Each output element is a pair
// of dot products down one contiguous matrix column; four columns run
// together so every x element loaded feeds eight FMA chains.
func GemvConjSoAAcc(m, n int, ar, ai []float32, lda int, xr, xi, yr, yi []float32) {
	if lda < max(1, m) || len(xr) < m || len(xi) < m || len(yr) < n || len(yi) < n {
		panic("cfloat: GemvConjSoAAcc bad dimensions")
	}
	xr, xi = xr[:m], xi[:m]
	c := 0
	for ; c+4 <= n; c += 4 {
		a0r := ar[c*lda : c*lda+m]
		a0i := ai[c*lda : c*lda+m]
		a1r := ar[(c+1)*lda : (c+1)*lda+m]
		a1i := ai[(c+1)*lda : (c+1)*lda+m]
		a2r := ar[(c+2)*lda : (c+2)*lda+m]
		a2i := ai[(c+2)*lda : (c+2)*lda+m]
		a3r := ar[(c+3)*lda : (c+3)*lda+m]
		a3i := ai[(c+3)*lda : (c+3)*lda+m]
		var s0r, s0i, s1r, s1i, s2r, s2i, s3r, s3i float32
		for i := range xr {
			vr, vi := xr[i], xi[i]
			// conj(a)·x = (ar − i·ai)(vr + i·vi)
			s0r += a0r[i]*vr + a0i[i]*vi
			s0i += a0r[i]*vi - a0i[i]*vr
			s1r += a1r[i]*vr + a1i[i]*vi
			s1i += a1r[i]*vi - a1i[i]*vr
			s2r += a2r[i]*vr + a2i[i]*vi
			s2i += a2r[i]*vi - a2i[i]*vr
			s3r += a3r[i]*vr + a3i[i]*vi
			s3i += a3r[i]*vi - a3i[i]*vr
		}
		yr[c] += s0r
		yi[c] += s0i
		yr[c+1] += s1r
		yi[c+1] += s1i
		yr[c+2] += s2r
		yi[c+2] += s2i
		yr[c+3] += s3r
		yi[c+3] += s3i
	}
	for ; c < n; c++ {
		acr := ar[c*lda : c*lda+m]
		aci := ai[c*lda : c*lda+m]
		var sr, si float32
		for i := range xr {
			vr, vi := xr[i], xi[i]
			sr += acr[i]*vr + aci[i]*vi
			si += acr[i]*vi - aci[i]*vr
		}
		yr[c] += sr
		yi[c] += si
	}
}
