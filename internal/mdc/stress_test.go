// Concurrency stress tests for the MDC frequency fan-out, meant to run
// under -race (`make race-stress`). They hammer FreqOperator with
// concurrent forward and adjoint products across worker counts, one
// TimeOperator (and its lazily built plan) under two solvers at once, and
// the sharded operator with mid-flight shard revocation. Guarded by
// testing.Short so quick suites skip them.
package mdc

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dense"
	"repro/internal/testkit/suite"
)

func TestStressFreqOperatorConcurrentApplyAdjoint(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; run via make race-stress")
	}
	suite.VerifyNoLeaks(t)
	rng := rand.New(rand.NewSource(71))
	nf, rows, cols := 12, 16, 14
	k := randKernel(rng, nf, rows, cols)
	x := dense.Random(rng, nf*cols, 1).Data
	z := dense.Random(rng, nf*rows, 1).Data

	for _, workers := range []int{1, 2, 5, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			op := &FreqOperator{K: k, Workers: workers}
			refFwd := make([]complex64, nf*rows)
			refAdj := make([]complex64, nf*cols)
			op.Apply(x, refFwd)
			op.ApplyAdjoint(z, refAdj)

			const goroutines = 8
			var wg sync.WaitGroup
			errs := make([]error, 2*goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(2)
				fwd := make([]complex64, nf*rows)
				adj := make([]complex64, nf*cols)
				go func(g int) {
					defer wg.Done()
					op.Apply(x, fwd)
					for i := range refFwd {
						if fwd[i] != refFwd[i] {
							errs[2*g] = fmt.Errorf("forward element %d drifted under concurrency", i)
							return
						}
					}
				}(g)
				go func(g int) {
					defer wg.Done()
					op.ApplyAdjoint(z, adj)
					for i := range refAdj {
						if adj[i] != refAdj[i] {
							errs[2*g+1] = fmt.Errorf("adjoint element %d drifted under concurrency", i)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestStressTimeOperatorSharedByTwoSolvers: one TimeOperator under two
// goroutines at once — each running forward and adjoint products and the
// standalone stages — shares the one plan and must give each the bits a
// lone caller gets, at every worker count.
func TestStressTimeOperatorSharedByTwoSolvers(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; run via make race-stress")
	}
	suite.VerifyNoLeaks(t)
	rng := rand.New(rand.NewSource(73))
	nf, rows, cols, nt := 6, 37, 20, 64
	k := randKernel(rng, nf, rows, cols)
	freqIdx := []int{2, 3, 4, 5, 6, 7}
	x := dense.Random(rng, cols*nt, 1).Data
	z := dense.Random(rng, rows*nt, 1).Data

	for _, workers := range []int{1, 2, 5} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			op := &TimeOperator{K: k, Nt: nt, FreqIdx: freqIdx, Scale: 0.5, Workers: workers}
			refFwd, refAdj := make([]complex64, rows*nt), make([]complex64, cols*nt)
			refBand := make([]complex64, nf*rows)
			op.Apply(x, refFwd)
			op.ApplyAdjoint(z, refAdj)
			op.AnalyzeTime(z, refBand, rows)

			var wg sync.WaitGroup
			errs := make([]error, 2)
			for g := range errs {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					fwd, adj := make([]complex64, rows*nt), make([]complex64, cols*nt)
					band, back := make([]complex64, nf*rows), make([]complex64, rows*nt)
					for round := 0; round < 20 && errs[g] == nil; round++ {
						op.Apply(x, fwd)
						op.ApplyAdjoint(z, adj)
						op.AnalyzeTime(z, band, rows)
						op.SynthesizeTime(band, back, rows)
						for _, c := range []struct {
							what      string
							got, want []complex64
						}{{"forward", fwd, refFwd}, {"adjoint", adj, refAdj}, {"analysis", band, refBand}} {
							for i := range c.want {
								if c.got[i] != c.want[i] {
									errs[g] = fmt.Errorf("round %d: %s element %d drifted under concurrency", round, c.what, i)
									break
								}
							}
						}
					}
				}(g)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestStressShardedOperatorMidFlightRevocation(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; run via make race-stress")
	}
	suite.VerifyNoLeaks(t)
	rng := rand.New(rand.NewSource(72))
	nf, rows, cols := 24, 10, 8
	k := randKernel(rng, nf, rows, cols)
	ref := &FreqOperator{K: k}
	x := dense.Random(rng, nf*cols, 1).Data
	want := make([]complex64, nf*rows)
	ref.Apply(x, want)

	op, err := NewShardedFreqOperator(k, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 30; round++ {
		victim := round % 6
		done := make(chan struct{})
		go func() {
			defer close(done)
			op.Runner.Revoke(victim)
		}()
		y := make([]complex64, nf*rows)
		if err := op.Apply(x, y); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		<-done
		op.Runner.Revive(victim)
		for i := range want {
			if y[i] != want[i] {
				t.Fatalf("round %d: element %d differs after failover (must stay bit-identical)", round, i)
			}
		}
	}
}
