// Concurrency stress test for the four TLR-MVM entry points, meant to
// run under -race (`make race-stress`): many goroutines sharing one
// matrix — its lazily built scratch free list — each driving a
// different product. Guarded by testing.Short so quick suites skip it.
package tlr

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dense"
)

// TestStressMulVecBatchedConcurrent began as the MulVecBatched-only
// stress test and keeps the name; its rows are now the four products
// MulVecBatched and the other frozen names forward to.
func TestStressMulVecBatchedConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; run via make race-stress")
	}
	const m, n, nb = 96, 80, 16
	rng := rand.New(rand.NewSource(81))
	a := decayMatrix(rng, m, n)
	compressed := compressOrDie(t, a, Options{NB: nb, Tol: 1e-4})
	x := dense.Random(rng, n, 1).Data
	xa := dense.Random(rng, m, 1).Data
	// references from the sequential AoS pair, before any concurrency
	fwd, adj, nrm := make([]complex64, m), make([]complex64, n), make([]complex64, n)
	compressed.MulVec(x, fwd)
	compressed.MulVecConjTrans(xa, adj)
	compressed.MulVecConjTrans(fwd, nrm)
	stp, w := make([]complex64, n), append([]complex64(nil), fwd...)
	for i := range w {
		w[i] -= 0.5 * xa[i]
	}
	compressed.MulVecConjTrans(w, stp)

	rows := []struct {
		name string
		want []complex64
		run  func(tm *Matrix, y []complex64)
	}{
		{"MulVec", fwd, func(tm *Matrix, y []complex64) { tm.MulVec(x, y) }},
		{"MulVecConjTrans", adj, func(tm *Matrix, y []complex64) { tm.MulVecConjTrans(xa, y) }},
		{"MulVecNormal", nrm, func(tm *Matrix, y []complex64) { tm.MulVecNormal(x, y) }},
		{"MulVecStep", stp, func(tm *Matrix, y []complex64) { tm.MulVecStep(x, 1, 0.5, xa, make([]complex64, m), y) }},
	}

	const rounds = 10
	for round := 0; round < rounds; round++ {
		// a fresh literal over the same tiles each round: no scratch
		// yet, so the goroutines race to build it
		tm := &Matrix{M: m, N: n, NB: nb, MT: compressed.MT, NT: compressed.NT, Tiles: compressed.Tiles}
		var wg sync.WaitGroup
		errs := make([]error, len(rows))
		for i := range rows {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				row := rows[i]
				y := make([]complex64, len(row.want))
				for rep := 0; rep < 3; rep++ {
					row.run(tm, y)
					if rel := relErrC(y, row.want); !(rel <= 1e-5) {
						errs[i] = fmt.Errorf("%s drifted from the sequential AoS reference (rel %g)", row.name, rel)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}
