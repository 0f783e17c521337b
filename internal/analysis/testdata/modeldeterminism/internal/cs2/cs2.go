// Package cs2 is a fixture standing in for a deterministic model
// package (path suffix internal/cs2).
package cs2

import (
	"math/rand"
	"os"
	"sort"
	"time"
)

// Violations: wall clock, environment, global rand.
func Nondeterministic() float64 {
	t := time.Now()                  // want `time.Now reads the wall clock`
	elapsed := time.Since(t)         // want `time.Since reads the wall clock`
	if os.Getenv("CS2_MODE") != "" { // want `os.Getenv reads the environment`
		return rand.Float64() // want `global math/rand.Float64 draws from a shared unseeded source`
	}
	return elapsed.Seconds()
}

// Seeded generators are deterministic and allowed.
func SeededOK() float64 {
	rng := rand.New(rand.NewSource(42))
	return rng.Float64()
}

// Map-order-dependent accumulation is flagged; order-independent map
// work (integer tallies, max tracking, sorted-key iteration) is not.
func Accumulate(costs map[int]float64, names map[string][]int) (float64, []int) {
	var total float64
	var order []int
	for _, c := range costs {
		total += c // want `floating-point accumulation over map iteration order`
	}
	for _, ids := range names {
		order = append(order, ids...) // want `append into an outer slice while ranging over a map`
	}

	// clean: integer count and float max are order-independent
	n := 0
	worst := 0.0
	for _, c := range costs {
		n++
		if c > worst {
			worst = c
		}
	}

	// clean: iterate sorted keys, then accumulate deterministically
	keys := make([]int, 0, len(costs))
	for k := range costs {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var sorted float64
	for _, k := range keys {
		sorted += costs[k]
	}
	return total + sorted + worst + float64(n), order
}
