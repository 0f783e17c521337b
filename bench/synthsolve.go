package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cfloat"
	"repro/internal/lsqr"
	"repro/internal/mdc"
	"repro/internal/opstore"
	"repro/internal/seismic"
	"repro/internal/tlr"
	"repro/internal/tlrio"
)

// synthWorkload is the shape solve-dram and solve-ooc share: a synthetic
// TLR operator under mdc.FreqOperator, lsqr.Solve at a fixed iteration
// count, seeded right-hand sides b = A·x_seed. solve-ooc routes the same
// kernels through an opstore tile cache a quarter the operator's size.
type synthWorkload struct {
	spec   synthSpec
	iters  int
	solves int
	ooc    bool
	// workers is mdc.FreqOperator.Workers: 0, the default, for solve-dram
	// and 1 for solve-ooc. With two workers every miss hands the cache
	// mutex and the 220 kB LRU table it scans to the other core, and the
	// solve time then follows where the host places the two vCPUs:
	// measured 4.9 s or 6.5 s for minutes at a time, same binary. The
	// traced run reports what all workers gain (opstore.parallel_speedup_x).
	workers int
}

func (w synthWorkload) operator(k mdc.Kernel) lsqr.Operator {
	return &mdc.FreqOperator{K: k, Workers: w.workers}
}

// The layout both workloads draw from: 16 frequencies of 6144×3072 at
// nb 64, 1 GiB in all — about four times the last-level cache of the
// host the workloads were sized on. solve-ooc materializes the two
// mid-band frequencies, 64 MiB each on average.
var dramSpec = synthSpec{Rows: 6144, Cols: 3072, NB: 64, NumFreqs: 16, TargetBytes: 1 << 30}

func runSolveDRAM(cfg runConfig) (*runResult, error) {
	// 7 right-hand sides fill 35 s; a solve takes about 5 s
	w := synthWorkload{spec: dramSpec, iters: 8, solves: unitCount(cfg.seconds, 0.2, 3, 7)}
	if cfg.smoke {
		w.spec = synthSpec{Rows: 384, Cols: 192, NB: 32, NumFreqs: 4, TargetBytes: 1 << 20}
		w.iters, w.solves = 4, 3
	}
	return w.run(cfg)
}

func runSolveOOC(cfg runConfig) (*runResult, error) {
	spec := dramSpec
	spec.Freqs = []int{7, 8}
	w := synthWorkload{spec: spec, iters: 4, solves: unitCount(cfg.seconds, 0.2, 3, 5), ooc: true, workers: 1}
	if cfg.smoke {
		w.spec = synthSpec{Rows: 384, Cols: 192, NB: 32, NumFreqs: 4, TargetBytes: 1 << 20, Freqs: []int{1, 2}}
		w.solves = 3
	}
	return w.run(cfg)
}

// synthSetup is one built operator: in memory always, and for solve-ooc
// also written to a store file and reopened through the tile cache.
type synthSetup struct {
	mats   []*tlr.Matrix // in-memory tiles
	kernel *mdc.TLRKernel
	store  *opstore.Store
	path   string

	writeS, openMs float64
	fileBytes      int64
}

func (s *synthSetup) close() {
	if s.store != nil {
		s.store.Close()
		os.Remove(s.path)
	}
}

func (w synthWorkload) setup(cfg runConfig) (*synthSetup, error) {
	mats, err := synthOperator(w.spec, cfg.seed)
	if err != nil {
		return nil, err
	}
	s := &synthSetup{mats: mats, kernel: &mdc.TLRKernel{Mats: mats}}
	if !w.ooc {
		return s, nil
	}
	s.path = filepath.Join(cfg.tmpDir, "operator.tlrp")
	freqs := make([]float64, len(mats))
	for i, f := range w.spec.freqs() {
		freqs[i] = float64(f)
	}
	t0 := time.Now()
	if err := opstore.WriteFile(s.path, &tlrio.Kernel{Freqs: freqs, Mats: mats}, nil); err != nil {
		return nil, fmt.Errorf("writing store: %w", err)
	}
	s.writeS = time.Since(t0).Seconds()
	if fi, err := os.Stat(s.path); err == nil {
		s.fileBytes = fi.Size()
	}
	t0 = time.Now()
	s.store, err = opstore.OpenFile(s.path, operatorBytes(mats)/4)
	if err != nil {
		return nil, fmt.Errorf("opening store: %w", err)
	}
	oocMats := make([]*tlr.Matrix, len(mats))
	for f := range mats {
		if oocMats[f], err = s.store.Matrix(f); err != nil {
			s.close()
			return nil, err
		}
	}
	s.openMs = ms(time.Since(t0))
	s.kernel = &mdc.TLRKernel{Mats: oocMats}
	return s, nil
}

func (w synthWorkload) run(cfg runConfig) (*runResult, error) {
	res := newRunResult()
	m := res.metrics

	s, setupS, err := setUp(cfg.setups(), func() (*synthSetup, error) { return w.setup(cfg) }, (*synthSetup).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	opBytes := operatorBytes(s.mats)
	nTiles := 0
	for _, t := range s.mats {
		nTiles += len(t.Tiles)
	}
	res.counts["operator_bytes"] = opBytes
	res.counts["freqs"] = int64(len(s.mats))
	res.counts["iters"] = int64(w.iters)

	// Right-hand sides b = A·x_seed through the reference operator.
	ref := &refOperator{mats: s.mats}
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	xSeed := make([][]complex64, w.solves)
	rhs := make([][]complex64, w.solves)
	for r := range rhs {
		xSeed[r] = randomVector(rng, ref.Cols())
		rhs[r] = make([]complex64, ref.Rows())
		ref.Apply(xSeed[r], rhs[r])
	}
	if w.ooc {
		// Only the store-backed operator stays resident while measuring;
		// the in-memory twin is rebuilt from the seed for the checks.
		s.mats, ref = nil, nil
		res.note("solve-ooc: the store file is page-cache-resident, so a miss costs the software path (pread + CRC-32C + decode), not a disk")
	}
	releaseMemory()

	opts := lsqr.Options{MaxIters: w.iters}
	op := w.operator(s.kernel)
	sols := make([]*lsqr.Result, 0, w.solves)
	solve := func(r int) error {
		out, err := lsqr.Solve(op, rhs[r], opts)
		sols = append(sols, out)
		return err
	}

	var solveMs, tracedMs []float64
	var rec *recorder
	var residentMax int64
	var statsBefore, statsAfter opstore.CacheStats
	var tracedIters int
	if !cfg.trace {
		if err := measureSolves(m, setupS, w.solves, solve); err != nil {
			return nil, err
		}
	} else {
		// A traced run: a third of the solves through the wrappers, the
		// others as in the untraced run, for the overhead.
		nTraced := max(1, w.solves/3)
		var err error
		if solveMs, err = timeEach(w.solves-nTraced, solve); err != nil {
			return nil, err
		}
		rec = newRecorder()
		var after func()
		if w.ooc {
			statsBefore = s.store.Stats()
			after = func() { residentMax = max(residentMax, s.store.Stats().ResidentBytes) }
		}
		tracedMs, err = timeEach(nTraced, func(i int) error {
			out, err := tracedSolve(rec, i+1, s.kernel, w.operator, nil, rhs[len(sols)], opts, after)
			if err == nil {
				tracedIters += out.Iters
			}
			sols = append(sols, out)
			return err
		})
		if err != nil {
			return nil, err
		}
		if w.ooc {
			statsAfter = s.store.Stats()
		}
	}

	// Checks, outside every timed window.
	if w.ooc {
		mats, err := synthOperator(w.spec, cfg.seed)
		if err != nil {
			return nil, err
		}
		s.mats, ref = mats, &refOperator{mats: mats}
	}
	memOp := w.operator(&mdc.TLRKernel{Mats: s.mats})
	var relRes, nmse, memMs []float64
	for r, sol := range sols {
		res.attempted++
		rr := relResidual(ref, sol.X, rhs[r])
		relRes = append(relRes, rr)
		nmse = append(nmse, seismic.NMSE(sol.X, xSeed[r]))
		bnorm := cfloat.Nrm2(rhs[r])
		switch est := sol.ResidualNorm / bnorm; {
		case sol.Iters != w.iters:
			res.fail("solve %d ran %d iterations, want %d", r, sol.Iters, w.iters)
			continue
		case !(rr < 1) || !closeTo(rr, est, 1e-2):
			res.fail("solve %d: reference residual %g against LSQR's estimate %g", r, rr, est)
			continue
		}
		// solve-ooc: every store-backed solve against the in-memory solve
		// of the same right-hand side. Otherwise: the first solve against
		// a full reference solve (a reference solve costs what a measured
		// solve costs; the reference residual above covers the others).
		switch {
		case w.ooc:
			t0 := time.Now()
			mem, err := lsqr.Solve(memOp, rhs[r], opts)
			memMs = append(memMs, ms(time.Since(t0)))
			if err != nil {
				return nil, err
			}
			if d := relDiff(sol.X, mem.X); !(d <= 1e-6) {
				res.fail("solve %d: store-backed solution differs from the in-memory one by %g", r, d)
			}
		case r == 0:
			want, err := lsqr.Solve(ref, rhs[r], opts)
			if err != nil {
				return nil, err
			}
			if d := relDiff(sol.X, want.X); !(d <= 1e-4) {
				res.fail("solve %d: solution differs from the AoS reference solve by %g", r, d)
			}
		}
	}
	res.counts["solves"] = int64(len(sols))

	if !cfg.trace {
		m["rel_residual"] = median(relRes)
		m["inversion_nmse"] = median(nmse)
		return res, nil
	}

	// Per-layer metrics.
	res.spans = rec.snapshot()
	if err := fillSolveLayers(m, res, cfg.smoke, s.mats, tracedIters, 0, tracedMs, solveMs); err != nil {
		return nil, err
	}
	// The same forward product on all workers and on one, the
	// single-threaded baseline. One worker goes last: its sweeps leave the
	// tile cache in a state that depends on nothing but the sweep, which
	// the counts pass of fillStoreMetrics starts from.
	x, y := xSeed[0], make([]complex64, memOp.Rows())
	allMs := 1e3 * timeReps(func() { (&mdc.FreqOperator{K: s.kernel}).Apply(x, y) })
	m["mdc.workers1_ms"] = 1e3 * timeReps(func() {
		(&mdc.FreqOperator{K: s.kernel, Workers: 1}).Apply(x, y)
	})
	if w.ooc {
		m["opstore.parallel_speedup_x"] = m["mdc.workers1_ms"] / allMs
		w.fillStoreMetrics(m, s, statsBefore, statsAfter, residentMax, tracedIters, nTiles, median(solveMs)/median(memMs))
	}
	return res, nil
}

// closeTo reports |a − b| ≤ tol·max(|a|, |b|).
func closeTo(a, b, tol float64) bool {
	d, scale := a-b, max(a, -a, b, -b)
	return d <= tol*scale && -d <= tol*scale
}

// fillStoreMetrics writes the opstore / tlrio metrics of solve-ooc.
// before/after bracket the traced solves; slowdown is the untraced
// store-backed solve over the in-memory solve of the same operator.
func (w synthWorkload) fillStoreMetrics(m metrics, s *synthSetup, before, after opstore.CacheStats,
	residentMax int64, iters, nTiles int, slowdown float64) {
	hits := float64(after.Hits - before.Hits)
	misses := float64(after.Misses - before.Misses)
	m["opstore.hits"] = hits
	m["opstore.misses"] = misses
	m["opstore.evictions"] = float64(after.Evictions - before.Evictions)
	m["opstore.hit_ratio"] = hits / (hits + misses)
	// Wasted work: a tile loaded more than once per product. The forward
	// phases 1 and 3 each fault the whole tile (U and V) for one panel.
	m["opstore.loads_per_tile_per_iter"] = misses / float64(nTiles) / float64(iters)
	m["opstore.resident_bytes_max"] = float64(residentMax)
	m["opstore.budget_bytes"] = float64(after.Budget)
	m["opstore.slowdown_x"] = slowdown
	m["tlrio.write_s"] = s.writeS
	m["tlrio.open_ms"] = s.openMs
	m["tlrio.file_bytes"] = float64(s.fileBytes)
	// computed: every miss reads the tile's encoded payload (fp32, so its
	// decoded size) from the file
	m["tlrio.read_bytes_per_iter"] = misses / float64(nTiles) * float64(operatorBytes(s.mats)) / float64(iters)

	// Counts pass on one worker: one iteration's misses, which repeat
	// exactly because the tile access order is then fixed.
	c0 := s.store.Stats()
	x := make([]complex64, s.kernel.NumFreqs()*s.kernel.Cols())
	y := make([]complex64, s.kernel.NumFreqs()*s.kernel.Rows())
	for i := range x {
		x[i] = 1
	}
	op := &mdc.FreqOperator{K: s.kernel, Workers: 1}
	op.Apply(x, y)
	op.ApplyAdjoint(y, x)
	m["opstore.misses_per_iter.w1"] = float64(s.store.Stats().Misses - c0.Misses)

	// Direct calls on the cache: a resident tile, then cold tiles.
	cache := s.store.Cache()
	if _, err := cache.Tile(0); err == nil {
		const reps = 1 << 16
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			cache.Tile(0)
		}
		m["opstore.hit_ns"] = float64(time.Since(t0)) / reps
	}
	// cold tiles spread over the whole grid (a prime stride), so that the
	// median is over the layout's mix of ranks and not one tile row
	var missUs []float64
	for k := 1; k <= 256; k++ {
		g := k * 7919 % nTiles
		if cache.Resident(g) {
			continue
		}
		t0 := time.Now()
		if _, err := cache.Tile(g); err == nil {
			missUs = append(missUs, float64(time.Since(t0))/1e3)
		}
	}
	m["opstore.miss_us_p50"] = median(missUs)
}
