package batch

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cfloat"
	"repro/internal/dense"
)

// splitMember builds one member from an interleaved column-major m×n
// matrix, carrying it as the presplit planes the engine executes on.
func splitMember(op Op, m, n int, a, x []complex64) MVM {
	ar, ai := make([]float32, len(a)), make([]float32, len(a))
	cfloat.SplitReIm(a, ar, ai)
	yout := m
	if op == OpC {
		yout = n
	}
	return MVM{Oper: op, M: m, N: n, AR: ar, AI: ai, LDA: m, X: x, Y: make([]complex64, yout)}
}

// buildBatch makes n independent MVMs with variable shapes up to
// maxDim×maxDim, returning the tasks plus reference outputs computed
// directly in complex arithmetic.
func buildBatch(rng *rand.Rand, n, maxDim int, op Op) ([]MVM, [][]complex64) {
	tasks := make([]MVM, n)
	refs := make([][]complex64, n)
	for i := range tasks {
		m := 1 + rng.Intn(maxDim)
		nn := 1 + rng.Intn(maxDim)
		a := dense.Random(rng, m, nn)
		xin := nn
		if op == OpC {
			xin = m
		}
		x := dense.Random(rng, xin, 1).Data
		tasks[i] = splitMember(op, m, nn, a.Data, x)
		ref := make([]complex64, len(tasks[i].Y))
		if op == OpC {
			a.MulVecConjTrans(x, ref)
		} else {
			a.MulVec(x, ref)
		}
		refs[i] = ref
	}
	return tasks, refs
}

// buildParallelBatch is buildBatch grown until the batch is past the
// serial-fallback threshold, so Workers > 1 really takes the LPT path.
func buildParallelBatch(rng *rand.Rand, n int, op Op) ([]MVM, [][]complex64) {
	tasks, refs := buildBatch(rng, n, 40, op)
	for TotalWork(tasks) < minParallelWork {
		t2, r2 := buildBatch(rng, n, 40, op)
		tasks, refs = append(tasks, t2...), append(refs, r2...)
	}
	return tasks, refs
}

func checkAgainst(t *testing.T, tasks []MVM, refs [][]complex64, tol float64) {
	t.Helper()
	for i := range tasks {
		diff := make([]complex64, len(refs[i]))
		for j := range diff {
			diff[j] = tasks[i].Y[j] - refs[i][j]
		}
		if rel := cfloat.Nrm2(diff) / (1 + cfloat.Nrm2(refs[i])); rel > tol {
			t.Fatalf("task %d: error %g", i, rel)
		}
	}
}

func TestRunMatchesDirectGemv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tasks, refs := buildParallelBatch(rng, 50, OpN)
	if err := Run(tasks, Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	checkAgainst(t, tasks, refs, 1e-5)
}

func TestRunAdjointBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tasks, refs := buildParallelBatch(rng, 30, OpC)
	if err := Run(tasks, Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	checkAgainst(t, tasks, refs, 1e-5)
}

func TestSerialFallbackSmallBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tasks, refs := buildBatch(rng, 3, 10, OpN)
	if TotalWork(tasks) >= minParallelWork {
		t.Fatal("batch too large to exercise the serial fallback")
	}
	// below minParallelWork the batch runs on the caller's goroutine
	// whatever the worker count
	if err := Run(tasks, Options{Workers: 8}); err != nil {
		t.Fatal(err)
	}
	checkAgainst(t, tasks, refs, 1e-5)
}

func TestValidationErrors(t *testing.T) {
	good := splitMember(OpN, 2, 2, make([]complex64, 4), make([]complex64, 2))
	cases := []func(MVM) MVM{
		func(m MVM) MVM { m.M = 0; return m },
		func(m MVM) MVM { m.LDA = 1; return m },
		func(m MVM) MVM { m.AR = m.AR[:2]; return m },
		func(m MVM) MVM { m.AI = nil; return m },
		func(m MVM) MVM { m.X = m.X[:1]; return m },
		func(m MVM) MVM { m.Y = nil; return m },
	}
	for i, mut := range cases {
		if err := Run([]MVM{mut(good)}, Options{}); err == nil {
			t.Errorf("case %d: invalid MVM accepted", i)
		}
	}
}

func TestSizeClassesAndWork(t *testing.T) {
	tasks := []MVM{
		{M: 4, N: 8}, {M: 4, N: 8}, {M: 2, N: 3},
	}
	classes := SizeClasses(tasks)
	if classes[[2]int{4, 8}] != 2 || classes[[2]int{2, 3}] != 1 {
		t.Errorf("classes %v", classes)
	}
	if TotalWork(tasks) != 4*8+4*8+2*3 {
		t.Error("TotalWork wrong")
	}
}

func TestPropertyParallelEqualsSerial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tasks, _ := buildParallelBatch(rng, 1+rng.Intn(25), OpN)
		// clone the batch sharing A/X but with fresh outputs
		tasksS := make([]MVM, len(tasks))
		copy(tasksS, tasks)
		for i := range tasksS {
			tasksS[i].Y = make([]complex64, len(tasks[i].Y))
		}
		if err := Run(tasksS, Options{Workers: 1}); err != nil {
			return false
		}
		if err := Run(tasks, Options{Workers: 8}); err != nil {
			return false
		}
		for i := range tasks {
			for j := range tasks[i].Y {
				if tasks[i].Y[j] != tasksS[i].Y[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBatch256VariableRank(b *testing.B) {
	// a TLR-like batch: 256 MVMs with ranks 1..16 against nb=48 tiles
	rng := rand.New(rand.NewSource(1))
	var tasks []MVM
	for i := 0; i < 256; i++ {
		k := 1 + rng.Intn(16)
		a := dense.Random(rng, 48, k)
		tasks = append(tasks, splitMember(OpN, 48, k, a.Data, dense.Random(rng, k, 1).Data))
	}
	b.SetBytes(8 * TotalWork(tasks))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Run(tasks, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatch256Serial(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var tasks []MVM
	for i := 0; i < 256; i++ {
		k := 1 + rng.Intn(16)
		a := dense.Random(rng, 48, k)
		tasks = append(tasks, splitMember(OpN, 48, k, a.Data, dense.Random(rng, k, 1).Data))
	}
	b.SetBytes(8 * TotalWork(tasks))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Run(tasks, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
