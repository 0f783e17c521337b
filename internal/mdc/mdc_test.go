package mdc

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cfloat"
	"repro/internal/dense"
	"repro/internal/tlr"
)

func randKernel(rng *rand.Rand, nf, rows, cols int) *DenseKernel {
	mats := make([]*dense.Matrix, nf)
	for i := range mats {
		mats[i] = dense.Random(rng, rows, cols)
	}
	k, err := NewDenseKernel(mats)
	if err != nil {
		panic(err)
	}
	return k
}

func TestNewDenseKernelValidation(t *testing.T) {
	if _, err := NewDenseKernel(nil); err == nil {
		t.Error("empty kernel should error")
	}
	rng := rand.New(rand.NewSource(1))
	mats := []*dense.Matrix{dense.Random(rng, 4, 3), dense.Random(rng, 5, 3)}
	if _, err := NewDenseKernel(mats); err == nil {
		t.Error("shape mismatch should error")
	}
}

func TestFreqOperatorMatchesPerFrequency(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	nf, rows, cols := 5, 8, 6
	k := randKernel(rng, nf, rows, cols)
	op := &FreqOperator{K: k, Scale: 2}
	x := dense.Random(rng, nf*cols, 1).Data
	y := make([]complex64, nf*rows)
	op.Apply(x, y)
	for f := 0; f < nf; f++ {
		want := make([]complex64, rows)
		k.Mats[f].MulVec(x[f*cols:(f+1)*cols], want)
		for i := range want {
			d := y[f*rows+i] - 2*want[i]
			if !(math.Hypot(float64(real(d)), float64(imag(d))) <= 1e-4*(1+math.Hypot(float64(real(want[i])), float64(imag(want[i]))))) {
				t.Fatalf("freq %d row %d mismatch", f, i)
			}
		}
	}
}

func TestFreqOperatorAdjointProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nf, rows, cols := 4, 7, 5
	k := randKernel(rng, nf, rows, cols)
	op := &FreqOperator{K: k, Scale: 1.5}
	x := dense.Random(rng, nf*cols, 1).Data
	y := dense.Random(rng, nf*rows, 1).Data
	ax := make([]complex64, nf*rows)
	op.Apply(x, ax)
	aty := make([]complex64, nf*cols)
	op.ApplyAdjoint(y, aty)
	lhs := cfloat.Dotc(y, ax)
	rhs := cfloat.Dotc(aty, x)
	d := lhs - rhs
	if !(math.Hypot(float64(real(d)), float64(imag(d))) <= 1e-2*(1+math.Hypot(float64(real(lhs)), float64(imag(lhs))))) {
		t.Errorf("adjoint violated: %v vs %v", lhs, rhs)
	}
}

func TestTLRKernelMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nf, rows, cols := 3, 32, 24
	// low-rank frequency matrices so compression is accurate
	mats := make([]*dense.Matrix, nf)
	for i := range mats {
		mats[i] = dense.Mul(dense.Random(rng, rows, 4), dense.Random(rng, 4, cols))
	}
	dk, err := NewDenseKernel(mats)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := CompressKernel(dk, tlr.Options{NB: 8, Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if tk.NumFreqs() != nf || tk.Rows() != rows || tk.Cols() != cols {
		t.Fatal("TLR kernel shape mismatch")
	}
	x := dense.Random(rng, cols, 1).Data
	yd := make([]complex64, rows)
	yt := make([]complex64, rows)
	for f := 0; f < nf; f++ {
		dk.Apply(f, x, yd)
		tk.Apply(f, x, yt)
		diff := make([]complex64, rows)
		for i := range diff {
			diff[i] = yd[i] - yt[i]
		}
		if rel := cfloat.Nrm2(diff) / cfloat.Nrm2(yd); !(rel <= 1e-3) {
			t.Errorf("freq %d: TLR kernel error %g", f, rel)
		}
	}
}

func TestCompressKernelReducesBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mats := make([]*dense.Matrix, 4)
	for i := range mats {
		mats[i] = dense.Mul(dense.Random(rng, 64, 3), dense.Random(rng, 3, 64))
	}
	dk, _ := NewDenseKernel(mats)
	tk, err := CompressKernel(dk, tlr.Options{NB: 16, Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if tk.Bytes() >= dk.Bytes() {
		t.Errorf("compression grew the kernel: %d vs %d", tk.Bytes(), dk.Bytes())
	}
}

func TestTimeOperatorAdjointProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	nf, rows, cols, nt := 3, 5, 4, 32
	k := randKernel(rng, nf, rows, cols)
	op := &TimeOperator{K: k, Nt: nt, FreqIdx: []int{3, 5, 9}, Scale: 1}
	x := dense.Random(rng, cols*nt, 1).Data
	y := dense.Random(rng, rows*nt, 1).Data
	ax := make([]complex64, rows*nt)
	op.Apply(x, ax)
	aty := make([]complex64, cols*nt)
	op.ApplyAdjoint(y, aty)
	lhs := cfloat.Dotc(y, ax)
	rhs := cfloat.Dotc(aty, x)
	d := lhs - rhs
	if !(math.Hypot(float64(real(d)), float64(imag(d))) <= 1e-2*(1+math.Hypot(float64(real(lhs)), float64(imag(lhs))))) {
		t.Errorf("time-domain adjoint violated: %v vs %v", lhs, rhs)
	}
}

// TestTimeOperatorIsItsStages pins the operator to its own standalone
// stages: Apply is SynthesizeTime(K · AnalyzeTime(x)) and ApplyAdjoint
// the same with Kᴴ, bit for bit, scale and worker count included.
func TestTimeOperatorIsItsStages(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nf, rows, cols, nt := 3, 5, 4, 32
	k := randKernel(rng, nf, rows, cols)
	for _, workers := range []int{1, 4} {
		op := &TimeOperator{K: k, Nt: nt, FreqIdx: []int{3, 5, 9}, Scale: 0.5, Workers: workers}
		for _, adj := range []bool{false, true} {
			nin, nout := cols, rows
			apply := op.Apply
			freq := (&FreqOperator{K: k, Scale: op.Scale, Workers: 1}).Apply
			if adj {
				nin, nout = rows, cols
				apply = op.ApplyAdjoint
				freq = (&FreqOperator{K: k, Scale: op.Scale, Workers: 1}).ApplyAdjoint
			}
			x := dense.Random(rng, nin*nt, 1).Data
			got := make([]complex64, nout*nt)
			apply(x, got)
			xf, yf := make([]complex64, nf*nin), make([]complex64, nf*nout)
			op.AnalyzeTime(x, xf, nin)
			freq(xf, yf)
			want := make([]complex64, nout*nt)
			op.SynthesizeTime(yf, want, nout)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d adjoint=%v: sample %d: %v vs staged %v", workers, adj, i, got[i], want[i])
				}
			}
		}
	}
}

func TestTimeOperatorBandLimiting(t *testing.T) {
	// input with energy only out of band must map to (near) zero
	rng := rand.New(rand.NewSource(7))
	nf, rows, cols, nt := 2, 3, 3, 64
	k := randKernel(rng, nf, rows, cols)
	op := &TimeOperator{K: k, Nt: nt, FreqIdx: []int{10, 20}}
	x := make([]complex64, cols*nt)
	// pure tone at bin 5 (out of band) on every channel
	for c := 0; c < cols; c++ {
		for tt := 0; tt < nt; tt++ {
			ang := 2 * math.Pi * 5 * float64(tt) / float64(nt)
			x[c*nt+tt] = complex64(complex(math.Cos(ang), math.Sin(ang)))
		}
	}
	y := make([]complex64, rows*nt)
	op.Apply(x, y)
	if n := cfloat.Nrm2(y); !(n <= 1e-3) {
		t.Errorf("out-of-band energy leaked: %g", n)
	}
}

func TestTimeOperatorFreqIdxMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	k := randKernel(rng, 3, 2, 2)
	op := &TimeOperator{K: k, Nt: 16, FreqIdx: []int{1}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	op.Apply(make([]complex64, 32), make([]complex64, 32))
}

// TestTimeOperatorFreqIdxValidated: a bin off the DFT grid or a repeated
// one is refused where the plan is built, by name, from every entry
// point — not an index panic inside a butterfly, not a silently
// non-unitary S.
func TestTimeOperatorFreqIdxValidated(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	k := randKernel(rng, 3, 2, 2)
	const nt = 16
	entries := map[string]func(op *TimeOperator){
		"Apply":          func(op *TimeOperator) { op.Apply(make([]complex64, 2*nt), make([]complex64, 2*nt)) },
		"ApplyAdjoint":   func(op *TimeOperator) { op.ApplyAdjoint(make([]complex64, 2*nt), make([]complex64, 2*nt)) },
		"AnalyzeTime":    func(op *TimeOperator) { op.AnalyzeTime(make([]complex64, 2*nt), make([]complex64, 6), 2) },
		"SynthesizeTime": func(op *TimeOperator) { op.SynthesizeTime(make([]complex64, 6), make([]complex64, 2*nt), 2) },
	}
	for _, c := range []struct {
		name    string
		freqIdx []int
		want    string
	}{
		{"negative", []int{1, -1, 3}, "FreqIdx[1] = -1 is outside [0, 16)"},
		{"at Nt", []int{1, 2, nt}, "FreqIdx[2] = 16 is outside [0, 16)"},
		{"far out", []int{400, 2, 3}, "FreqIdx[0] = 400 is outside [0, 16)"},
		{"duplicate", []int{5, 2, 5}, "FreqIdx[2] repeats bin 5"},
	} {
		for entry, call := range entries {
			t.Run(c.name+"/"+entry, func(t *testing.T) {
				defer func() {
					msg := fmt.Sprint(recover())
					if !strings.HasPrefix(msg, "mdc: TimeOperator FreqIdx") || !strings.Contains(msg, c.want) {
						t.Fatalf("panic %q, want mdc: TimeOperator … %s", msg, c.want)
					}
				}()
				call(&TimeOperator{K: k, Nt: nt, FreqIdx: c.freqIdx})
			})
		}
	}
	// the boundary bins are legal
	op := &TimeOperator{K: k, Nt: nt, FreqIdx: []int{0, nt - 1, 7}}
	op.Apply(make([]complex64, 2*nt), make([]complex64, 2*nt))
}

func TestFreqOperatorShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	k := randKernel(rng, 6, 10, 7)
	op := &FreqOperator{K: k}
	if op.Rows() != 60 || op.Cols() != 42 {
		t.Errorf("operator shape %dx%d", op.Rows(), op.Cols())
	}
}

func BenchmarkFreqOperatorApply(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	k := randKernel(rng, 40, 96, 60)
	op := &FreqOperator{K: k, Scale: 1}
	x := dense.Random(rng, op.Cols(), 1).Data
	y := make([]complex64, op.Rows())
	b.SetBytes(k.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.Apply(x, y)
	}
}

func TestFreqOperatorApplyStepShortVectorPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	op := &FreqOperator{K: randKernel(rng, 2, 4, 3)}
	for name, c := range map[string]struct{ x, u, w, z int }{
		"x": {5, 8, 8, 6}, "u": {6, 7, 8, 6}, "w": {6, 8, 7, 6}, "z": {6, 8, 8, 5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("short step %s should panic", name)
				}
			}()
			op.ApplyStep(make([]complex64, c.x), 1, make([]complex64, c.u), make([]complex64, c.w), make([]complex64, c.z))
		}()
	}
}
