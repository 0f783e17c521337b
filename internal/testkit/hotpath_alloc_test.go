package testkit

import "testing"

// TestHotPathAllocs is the allocation-budget contract: every kernel in
// the hot-path registry must run steady-state with zero allocations per
// op. It measures the compiled code, so it also catches what source
// inspection cannot — interface boxing in callees, escape-analysis
// regressions, scratch that silently stopped being recycled.
func TestHotPathAllocs(t *testing.T) {
	for _, hp := range hotPaths() {
		t.Run(hp.Name, func(t *testing.T) {
			op, err := hp.Setup()
			if err != nil {
				t.Fatalf("setup: %v", err)
			}
			// Warm lazily built scratch (free lists, offset tables)
			// before measuring; AllocsPerRun adds one more warm-up run
			// of its own.
			op()
			op()
			if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
				t.Errorf("%s: %.1f allocs/op, want 0", hp.Name, allocs)
			}
		})
	}
}

// TestHotPathGateDetectsAllocation is the negative control: the same
// measurement that passes for every registered kernel must flag an op
// that allocates — removing a scratch hoist trips the gate.
func TestHotPathGateDetectsAllocation(t *testing.T) {
	op := func() {
		allocSink = make([]complex64, 64)
	}
	if allocs := testing.AllocsPerRun(10, op); allocs == 0 {
		t.Fatal("AllocsPerRun reported 0 for a deliberately allocating op; the gate is not measuring")
	}
}

// allocSink forces the negative control's buffer to escape to the heap.
var allocSink []complex64
