// Differential tests for the batched-MVM engine: every scheduling mode
// (serial, parallel LPT) must produce the same bits as direct per-member
// split-plane kernel calls, and the same numbers as the complex Gemv up
// to float32 rounding.
// External test package: testkit depends on batch transitively via tlr.
package batch_test

import (
	"math/rand"
	"testing"

	"repro/internal/batch"
	"repro/internal/cfloat"
	"repro/internal/testkit"
)

// heterogeneousBatch builds nTasks MVMs with variable shapes — the
// variable-rank irregularity (§4) the engine exists for — half forward,
// half adjoint, writing to disjoint outputs. It returns the members and
// each member's interleaved matrix for the complex reference.
func heterogeneousBatch(rng *rand.Rand, nTasks int) ([]batch.MVM, [][]complex64) {
	tasks := make([]batch.MVM, 0, nTasks)
	mats := make([][]complex64, 0, nTasks)
	for i := 0; i < nTasks; i++ {
		m := 1 + rng.Intn(24)
		n := 1 + rng.Intn(24)
		op := batch.OpN
		xin, yout := n, m
		if i%2 == 1 {
			op = batch.OpC
			xin, yout = m, n
		}
		a := testkit.Vec(rng, m*n)
		ar, ai := make([]float32, m*n), make([]float32, m*n)
		cfloat.SplitReIm(a, ar, ai)
		mats = append(mats, a)
		tasks = append(tasks, batch.MVM{
			Oper: op, M: m, N: n, AR: ar, AI: ai, LDA: m,
			X: testkit.Vec(rng, xin), Y: make([]complex64, yout),
		})
	}
	return tasks, mats
}

func TestDifferentialSchedulingModes(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		tasks, mats := heterogeneousBatch(testkit.NewRNG(31), 60)
		if batch.TotalWork(tasks) < 4096 {
			t.Fatal("batch below the engine's serial-fallback threshold; the parallel schedule would go untested")
		}
		if err := batch.Run(tasks, batch.Options{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		for i, tk := range tasks {
			// the engine adds only a schedule around the split-plane
			// kernels: bitwise equal to calling them directly
			k := max(tk.M, tk.N)
			direct := make([]complex64, len(tk.Y))
			xr, xi, yr, yi := make([]float32, k), make([]float32, k), make([]float32, k), make([]float32, k)
			// §6.6: four real sweeps reorder the complex arithmetic, so
			// against the complex Gemv they agree to float32 rounding
			native := make([]complex64, len(tk.Y))
			if tk.Oper == batch.OpC {
				cfloat.GemvConjSoA(tk.M, tk.N, tk.AR, tk.AI, tk.LDA, tk.X, direct, xr, xi, yr, yi)
				cfloat.Gemv(cfloat.ConjTrans, tk.M, tk.N, 1, mats[i], tk.LDA, tk.X, 0, native)
			} else {
				cfloat.GemvSoA(tk.M, tk.N, tk.AR, tk.AI, tk.LDA, tk.X, direct, xr, xi, yr, yi)
				cfloat.Gemv(cfloat.NoTrans, tk.M, tk.N, 1, mats[i], tk.LDA, tk.X, 0, native)
			}
			if d := testkit.MaxULPDist(tk.Y, direct); d != 0 {
				t.Fatalf("workers=%d member %d: %d ULPs from the direct split-plane kernel", workers, i, d)
			}
			if e := testkit.RelErr(tk.Y, native); e > testkit.ExecTolerance(max(tk.M, tk.N)) {
				t.Fatalf("workers=%d member %d (%dx%d): relErr %g from the complex Gemv", workers, i, tk.M, tk.N, e)
			}
		}
	}
}
