// Package batch is a variable-size batched-MVM execution engine — the
// capability the paper finds missing from vendor libraries ("the current
// NVIDIA and AMD software ecosystems do not provide support for batched
// execution required to effectively launch TLR-MVM with complex precisions
// and variable ranks", §4). A batch collects many independent complex
// MVMs of heterogeneous shapes; the engine groups them into size classes,
// schedules the classes over a worker pool largest-first (LPT scheduling,
// which bounds load imbalance), and executes each MVM as four real MVMs
// on split real/imaginary planes, as the CS-2 kernel must (the §6.6
// decomposition). Members carry their matrix presplit — the one member
// kind — so only the vector endpoints are split per product; the
// identity itself is pinned by cfloat's ComplexMVMViaFourReal tests.
package batch

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/cfloat"
	"repro/internal/obs"
)

// Batch-engine metrics: one timer per Run, counters for members and
// scheduled fmac work (2 flops each in the §6.6 convention).
var (
	obsRun   = obs.NewTimer("batch.run")
	obsTasks = obs.NewCounter("batch.tasks")
	obsMeter = obs.NewMeter("batch.run")
)

// Op selects how each MVM applies its matrix.
type Op int

const (
	// OpN computes y = A x.
	OpN Op = iota
	// OpC computes y = Aᴴ x.
	OpC
)

// MVM is one batch member: y ← op(A)·x with A m×n column-major at
// stride lda, carried as presplit float32 real and imaginary planes (the
// SoA layout of internal/cfloat/soa.go), so the member executes on the
// split planes directly with no per-member matrix split.
type MVM struct {
	Oper   Op
	M, N   int
	AR, AI []float32
	LDA    int
	X      []complex64
	Y      []complex64
}

// work returns the fmac count, the scheduling weight.
func (t MVM) work() int64 { return int64(t.M) * int64(t.N) }

func (t MVM) validate(i int) error {
	if t.M <= 0 || t.N <= 0 {
		return fmt.Errorf("batch: MVM %d has dimensions %dx%d", i, t.M, t.N)
	}
	if t.LDA < t.M {
		return fmt.Errorf("batch: MVM %d has lda %d < m %d", i, t.LDA, t.M)
	}
	if need := t.LDA*(t.N-1) + t.M; len(t.AR) < need || len(t.AI) < need {
		return fmt.Errorf("batch: MVM %d split matrix planes too short", i)
	}
	xin, yout := t.N, t.M
	if t.Oper == OpC {
		xin, yout = t.M, t.N
	}
	if len(t.X) < xin {
		return fmt.Errorf("batch: MVM %d x too short (%d < %d)", i, len(t.X), xin)
	}
	if len(t.Y) < yout {
		return fmt.Errorf("batch: MVM %d y too short (%d < %d)", i, len(t.Y), yout)
	}
	return nil
}

// Options configures execution.
type Options struct {
	// Workers bounds the parallelism (0 = GOMAXPROCS).
	Workers int
}

// minParallelWork is the fmac count below which the whole batch runs on
// the caller's goroutine: under it the dispatch channel and goroutine
// wake-ups cost more than the members themselves.
const minParallelWork = 4096

// Run executes every MVM of the batch. Members must write to disjoint Y
// slices (the usual TLR-MVM batches do: one output segment per panel).
// The dispatch channel and worker goroutines are the engine's per-Run
// overhead, amortized across the whole batch; per-member work is
// allocation-free.
func Run(tasks []MVM, opts Options) error {
	var total int64
	for i := range tasks {
		if err := tasks[i].validate(i); err != nil {
			return err
		}
		total += tasks[i].work()
	}
	defer obsRun.Start().End()
	obsTasks.Add(int64(len(tasks)))
	// a complex fmac is 8 real flops and touches A once plus x and y
	obsMeter.Add(8*total, 8*total)
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || total < minParallelWork || len(tasks) == 1 {
		for i := range tasks {
			execute(&tasks[i])
		}
		return nil
	}
	// LPT schedule: largest tasks first over a shared index queue keeps
	// the tail short without a bin-packing pass
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return tasks[order[a]].work() > tasks[order[b]].work()
	})
	next := make(chan int, len(order))
	for _, i := range order {
		//lint:ctx-ok next is buffered to len(order), so every send lands in a free slot and can never block
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(tasks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				execute(&tasks[i])
			}
		}()
	}
	wg.Wait()
	return nil
}

// vecScratch holds the split real/imaginary planes of one member's
// vector endpoints. The buffers grow monotonically to the largest member
// seen, so a steady-state workload stops allocating after warm-up.
type vecScratch struct {
	xr, xi []float32 // input planes
	yr, yi []float32 // output planes
}

// grow ensures capacity; it is outside execute's allocation-free
// contract because the (re)allocations happen only while buffers ratchet
// up (monotonically) to the workload's steady-state shape.
func (s *vecScratch) grow(n int) {
	if cap(s.xr) < n {
		s.xr = make([]float32, n)
		s.xi = make([]float32, n)
		s.yr = make([]float32, n)
		s.yi = make([]float32, n)
	}
}

// scratchFree recycles vector scratch across Run calls and workers. A
// channel free list rather than sync.Pool: the pool may drop entries at
// any GC, which would make the AllocsPerRun gate nondeterministic.
var scratchFree = make(chan *vecScratch, 16)

// execute runs one member: the matrix planes come with the member, so
// only the vector endpoints are split, into free-list scratch.
// Registered hot path: it runs once per member per Run, and the steady
// state performs no allocations.
func execute(t *MVM) {
	var s *vecScratch
	select {
	case s = <-scratchFree:
	default:
		// one-time checkout when the free list is empty; steady state recycles
		s = new(vecScratch)
	}
	s.grow(max(t.M, t.N))
	if t.Oper == OpC {
		cfloat.GemvConjSoA(t.M, t.N, t.AR, t.AI, t.LDA, t.X, t.Y, s.xr, s.xi, s.yr, s.yi)
	} else {
		cfloat.GemvSoA(t.M, t.N, t.AR, t.AI, t.LDA, t.X, t.Y, s.xr, s.xi, s.yr, s.yi)
	}
	select {
	case scratchFree <- s:
	default:
	}
}

// SizeClasses groups the batch members by (m, n) shape, reporting how
// irregular the batch is — the variable-rank irregularity that defeats
// fixed-shape vendor batching.
func SizeClasses(tasks []MVM) map[[2]int]int {
	out := make(map[[2]int]int)
	for _, t := range tasks {
		out[[2]int{t.M, t.N}]++
	}
	return out
}

// TotalWork returns the aggregate fmac count.
func TotalWork(tasks []MVM) int64 {
	var w int64
	for _, t := range tasks {
		w += t.work()
	}
	return w
}
