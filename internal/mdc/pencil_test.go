package mdc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dense"
	"repro/internal/fft"
	"repro/internal/testkit/suite"
)

// refAnalyze and refSynthesize are the S and Sᴴ stages on one
// goroutine: one channel at a time through the full Plan.Forward /
// Plan.Inverse, strided straight into the panels. Test only — the
// reference the fanned-out stages must equal bit for bit.
func refAnalyze(nt int, freqIdx []int, x, out []complex64, nchan int) {
	plan := fft.NewPlan(nt)
	root := 1 / math.Sqrt(float64(nt))
	buf := make([]complex128, nt)
	for c := 0; c < nchan; c++ {
		for t := 0; t < nt; t++ {
			buf[t] = complex128(x[c*nt+t])
		}
		plan.Forward(buf)
		for f, bin := range freqIdx {
			v := buf[bin]
			out[f*nchan+c] = complex64(complex(real(v)*root, imag(v)*root))
		}
	}
}

func refSynthesize(nt int, freqIdx []int, x, out []complex64, nchan int) {
	plan := fft.NewPlan(nt)
	rootInv := math.Sqrt(float64(nt))
	buf := make([]complex128, nt)
	for c := 0; c < nchan; c++ {
		clear(buf)
		for f, bin := range freqIdx {
			buf[bin] = complex128(x[f*nchan+c])
		}
		plan.Inverse(buf)
		for t := 0; t < nt; t++ {
			v := buf[t]
			out[c*nt+t] = complex64(complex(real(v)*rootInv, imag(v)*rootInv))
		}
	}
}

// refProduct is Sᴴ K S (or Sᴴ Kᴴ S) over the reference stages and a
// one-worker FreqOperator.
func refProduct(op *TimeOperator, adj bool, x, y []complex64) {
	nf, nin, nout := op.K.NumFreqs(), op.K.Cols(), op.K.Rows()
	freq := (&FreqOperator{K: op.K, Scale: op.Scale, Workers: 1}).Apply
	if adj {
		nin, nout = nout, nin
		freq = (&FreqOperator{K: op.K, Scale: op.Scale, Workers: 1}).ApplyAdjoint
	}
	xf, yf := make([]complex64, nf*nin), make([]complex64, nf*nout)
	refAnalyze(op.Nt, op.FreqIdx, x, xf, nin)
	freq(xf, yf)
	refSynthesize(op.Nt, op.FreqIdx, yf, y, nout)
}

func dirty(n int) []complex64 {
	s := make([]complex64, n)
	for i := range s {
		s[i] = complex(float32(math.NaN()), 7)
	}
	return s
}

func expectSame(t *testing.T, what string, got, want []complex64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d is %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// TestTimeStagesMatchReference holds the stages, fanned out over
// channels, to the one-goroutine reference with ==, not a tolerance:
// every Nt shape (even and odd log₂, a Bluestein length), low, scattered,
// single, upper and full bands, channel counts from 1 to more than the
// workers can split evenly, every worker count, into outputs that start
// dirty, twice per operator so that the second pass runs on a plan that
// is already built.
func TestTimeStagesMatchReference(t *testing.T) {
	suite.VerifyNoLeaks(t)
	rng := rand.New(rand.NewSource(24))
	seq := func(lo, hi int) []int {
		var s []int
		for k := lo; k < hi; k++ {
			s = append(s, k)
		}
		return s
	}
	for _, nt := range []int{16, 32, 64, 128, 256, 100} {
		bands := map[string][]int{
			"low":       seq(nt/64+1, nt/4-nt/16),
			"scattered": {3, 5, 9},
			"one":       {2},
			"upper":     {1, nt/2 + 3},
			"every":     seq(0, nt),
		}
		for name, freqIdx := range bands {
			nf := len(freqIdx)
			for _, nchan := range []int{1, 15, 16, 17, 50} {
				x := dense.Random(rng, nchan*nt, 1).Data
				xf := dense.Random(rng, nf*nchan, 1).Data
				wantF, wantT := make([]complex64, nf*nchan), make([]complex64, nchan*nt)
				refAnalyze(nt, freqIdx, x, wantF, nchan)
				refSynthesize(nt, freqIdx, xf, wantT, nchan)
				for _, workers := range []int{1, 2, 4, 8} {
					op := &TimeOperator{Nt: nt, FreqIdx: freqIdx, Workers: workers}
					what := fmt.Sprintf("nt=%d band=%s nchan=%d workers=%d", nt, name, nchan, workers)
					for pass := 0; pass < 2; pass++ {
						gotF, gotT := dirty(nf*nchan), dirty(nchan*nt)
						op.AnalyzeTime(x, gotF, nchan)
						op.SynthesizeTime(xf, gotT, nchan)
						expectSame(t, what+" AnalyzeTime", gotF, wantF)
						expectSame(t, what+" SynthesizeTime", gotT, wantT)
					}
				}
			}
		}
		// the whole product, both directions, on a kernel of 21 × 18 channels
		freqIdx := bands["scattered"]
		k := randKernel(rng, len(freqIdx), 21, 18)
		for _, workers := range []int{1, 2, 4, 8} {
			op := &TimeOperator{K: k, Nt: nt, FreqIdx: freqIdx, Scale: 0.5, Workers: workers}
			for _, adj := range []bool{false, true} {
				nin, nout, apply := k.Cols(), k.Rows(), op.Apply
				if adj {
					nin, nout, apply = nout, nin, op.ApplyAdjoint
				}
				x := dense.Random(rng, nin*nt, 1).Data
				want := make([]complex64, nout*nt)
				refProduct(op, adj, x, want)
				for pass := 0; pass < 2; pass++ {
					got := dirty(nout * nt)
					apply(x, got)
					expectSame(t, fmt.Sprintf("nt=%d workers=%d adjoint=%v product", nt, workers, adj), got, want)
				}
			}
		}
	}
}
