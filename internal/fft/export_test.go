package fft

// Inverse64 is the complex64 counterpart of Inverse. The solve
// synthesizes through Inverse on complex128 panels; only the tests
// transform complex64 slices back.
func (p *Plan) Inverse64(x []complex64) { widened(x, p.Inverse) }

// RFFT computes the one-sided spectrum of a real time series of length
// nt: nt/2+1 complex coefficients (frequencies 0..Nyquist), the input
// IRFFT inverts.
func RFFT(x []float64) []complex128 {
	nt := len(x)
	p := NewPlan(nt)
	buf := make([]complex128, nt)
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	p.Forward(buf)
	return buf[:nt/2+1]
}
