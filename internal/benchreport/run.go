package benchreport

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/cs2"
	"repro/internal/fault"
	"repro/internal/mdc"
	"repro/internal/mddserve"
	"repro/internal/obs"
	"repro/internal/opstore"
	"repro/internal/ranks"
	"repro/internal/seismic"
	"repro/internal/testkit"
	"repro/internal/tlr"
	"repro/internal/tlrio"
	"repro/internal/wse"
	"repro/internal/wsesim"
)

// Profile sizes one benchreport run: short is what CI gates against
// BENCH_baseline.json, smoke the minimal workload the tests run.
type Profile struct {
	Name    string
	Dataset seismic.Options
	// NB and Acc configure the TLR compression under test.
	NB  int
	Acc float64
	// ServeJobs is the size of the mixed job burst sent to mddserve.
	ServeJobs int
	// SolverIters is the LSQR iteration budget of the MDD solve.
	SolverIters int
	// SimSW is the wsesim stack width.
	SimSW int
	// PaperScale includes the rank-distribution machine-model metrics
	// (Tables 2/5 scale) — deterministic, ~seconds of calibration.
	PaperScale bool
}

// Profiles returns the named profile or an error listing the choices.
func Profiles(name string) (Profile, error) {
	switch name {
	case "short":
		// CI profile: small survey, few reps — a couple of seconds.
		return Profile{
			Name: "short",
			Dataset: seismic.Options{
				Geom: seismic.Geometry{
					NsX: 8, NsY: 6, NrX: 8, NrY: 4,
					Dx: 20, Dy: 20, SrcDepth: 10, RecDepth: 300,
				},
				Nt: 128, Dt: 0.004,
			},
			NB: 8, Acc: 1e-4, ServeJobs: 40, SolverIters: 10, SimSW: 8,
			PaperScale: true,
		}, nil
	case "smoke":
		// Test profile: minimal everything, no paper-scale calibration.
		return Profile{
			Name: "smoke",
			Dataset: seismic.Options{
				Geom: seismic.Geometry{
					NsX: 4, NsY: 3, NrX: 4, NrY: 3,
					Dx: 20, Dy: 20, SrcDepth: 10, RecDepth: 300,
				},
				Nt: 64, Dt: 0.004,
			},
			NB: 4, Acc: 1e-3, ServeJobs: 8, SolverIters: 5, SimSW: 4,
		}, nil
	}
	return Profile{}, fmt.Errorf("benchreport: unknown profile %q (want short or smoke)", name)
}

// Run executes the curated benchmark set for the profile and assembles
// the report. Collection on the obs registry is enabled for the duration:
// the failover, store and serve rows are deltas of its counters.
func Run(label string, p Profile) (*Report, error) {
	wasEnabled := obs.Enabled()
	obs.Enable()
	obs.Reset()
	defer func() {
		if !wasEnabled {
			obs.Disable()
		}
	}()

	r := NewReport(label, p.Name)
	add := func(name string, value float64, unit, direction string, gate bool) {
		r.Metrics = append(r.Metrics, Metric{
			Name: name, Value: value, Unit: unit, Direction: direction, Gate: gate,
		})
	}

	// --- workload: the survey's Hilbert-ordered kernel, TLR-compressed
	// once; the single-matrix rows use its middle frequency slice ---
	pipe, err := core.BuildPipeline(core.PipelineOptions{
		Dataset: p.Dataset, TileSize: p.NB, Accuracy: p.Acc,
	})
	if err != nil {
		return nil, fmt.Errorf("benchreport: building pipeline: %w", err)
	}
	tk := pipe.Problem.K.(*mdc.TLRKernel) // BuildPipeline compresses unless Dense is set
	tm := tk.Mats[len(tk.Mats)/2]
	add("tlr.compression_ratio", tm.CompressionRatio(), "x", Higher, true)

	rng := rand.New(rand.NewSource(1))
	x := make([]complex64, tm.N)
	for i := range x {
		x[i] = complex(rng.Float32()-0.5, rng.Float32()-0.5)
	}
	// Layout/blocking facts: pure functions of the deterministic dataset,
	// the compression options, and the roofline cache parameters, so they
	// gate — a drift means the layout or the blocking policy changed.
	add("tlr.mvm.soa.panel_cols", float64(tm.PanelCols()), "cols", Higher, true)
	add("tlr.mvm.soa.bytes", float64(tm.SoABytes()), "B", Lower, true)

	// --- MDC kernel: the per-frequency stack ---
	add("mdc.kernel.compression_ratio", pipe.CompressionRatio(), "x", Higher, true)

	// --- MDD inversion: LSQR solve quality ---
	vs := pipe.DS.Geom.NumReceivers() / 2
	rep, err := pipe.RunMDD(vs, p.SolverIters)
	if err != nil {
		return nil, fmt.Errorf("benchreport: MDD solve: %w", err)
	}
	add("mdd.inversion_nmse", rep.InversionNMSE, "nmse", Lower, true)
	add("mdd.adjoint_nmse", rep.AdjointNMSE, "nmse", Lower, true)
	add("lsqr.final_residual", rep.FinalResidual, "norm", Lower, true)
	add("lsqr.iters", float64(rep.Iterations), "iters", Lower, false)

	// --- wsesim: executed wafer-scale functional simulation ---
	mach, err := wsesim.Build(tm, p.SimSW, cs2.DefaultArch())
	if err != nil {
		return nil, fmt.Errorf("benchreport: wsesim build: %w", err)
	}
	mach.MulVec(x, make([]complex64, tm.M))
	add("wsesim.model_cycles", float64(mach.ModelCycles()), "cycles", Lower, true)
	add("wsesim.pes", float64(mach.NumPEs()), "PEs", Lower, true)
	add("wsesim.worst_sram_bytes", float64(mach.WorstSRAM()), "B", Lower, true)
	met := mach.TotalMeter() // of the one product above
	add("wsesim.executed_bytes_op", float64(met.Bytes()), "B/op", Lower, true)
	add("wsesim.executed_fmacs_op", float64(met.FMACs), "fmac/op", Lower, true)

	// --- fault tolerance: deterministic failover overhead ---
	if err := failoverMetrics(add, tk); err != nil {
		return nil, err
	}

	// --- hot-path allocation budgets ---
	if err := hotPathAllocMetrics(add); err != nil {
		return nil, err
	}

	// --- out-of-core store: paged-tile cache traffic under a tight budget ---
	if err := opstoreMetrics(add, tm); err != nil {
		return nil, err
	}

	// --- serving layer: admission control, cache reuse, job latency ---
	if err := serveMetrics(add, p); err != nil {
		return nil, err
	}

	// --- paper-scale machine model: deterministic Tables 2/5 metrics ---
	if p.PaperScale {
		if err := paperScaleMetrics(add); err != nil {
			return nil, err
		}
	}

	return r, nil
}

// failoverMetrics measures the execution overhead of surviving a fixed
// fault schedule on the sharded frequency fan-out: one of four simulated
// CS-2 shards dies on its first product and the run completes on the
// survivors. The counts are deterministic — tasks are enqueued
// round-robin before execution starts, the dead shard's queue drains
// sequentially up to the sticky fault, and the surviving shards never
// fail — so extra executions, retries, and failed-over tasks are a pure
// function of the schedule and the frequency count, and the metrics can
// gate.
func failoverMetrics(add func(name string, value float64, unit, direction string, gate bool), k mdc.Kernel) error {
	sched, err := fault.Parse("shard2:die@1")
	if err != nil {
		return fmt.Errorf("benchreport: fault schedule: %w", err)
	}
	runner, err := batch.NewShardRunner(batch.ShardOptions{
		Shards: 4,
		Sleep:  func(time.Duration) {}, // no real backoff: keep the run instant
		// Stealing would let healthy shards race the faulty one for its
		// queue, making the failover counts timing-dependent; pinning
		// tasks keeps them a pure function of the schedule.
		DisableStealing: true,
	})
	if err != nil {
		return fmt.Errorf("benchreport: shard runner: %w", err)
	}
	op := &mdc.ShardedFreqOperator{K: k, Runner: runner, Intercept: fault.Shard(fault.NewInjector(sched))}
	x := make([]complex64, op.Cols())
	y := make([]complex64, op.Rows())

	before := obs.TakeSnapshot()
	if err := op.Apply(x, y); err != nil {
		return fmt.Errorf("benchreport: faulted sharded apply: %w", err)
	}
	after := obs.TakeSnapshot()
	delta := func(name string) float64 {
		return float64(after.Counter(name) - before.Counter(name))
	}

	nf := float64(k.NumFreqs())
	extra := delta("batch.shard.execs") - nf
	add("fault.failover.extra_execs", extra, "execs", Lower, true)
	add("fault.failover.tasks", delta("batch.shard.failovers"), "tasks", Lower, true)
	add("fault.failover.retries", delta("batch.shard.retries"), "retries", Lower, true)
	add("fault.failover.overhead_pct", 100*extra/nf, "%", Lower, true)
	return nil
}

// hotPathAllocMetrics measures steady-state allocations per op for every
// kernel in the shared hot-path registry (internal/testkit.HotPaths).
// The family gates at zero tolerance, so an escape-analysis or library
// regression that makes a steady-state kernel allocate shows up on the
// bench trajectory as well as in TestHotPathAllocs.
func hotPathAllocMetrics(add func(name string, value float64, unit, direction string, gate bool)) error {
	for _, hp := range testkit.HotPaths() {
		op, err := hp.Setup()
		if err != nil {
			return fmt.Errorf("benchreport: hot path %s: %w", hp.Name, err)
		}
		// Warm lazily built scratch (free lists, offset tables);
		// AllocsPerRun adds one more warm-up run of its own.
		op()
		add("hotpath."+hp.Name+".allocs_per_op", testing.AllocsPerRun(50, op), "allocs/op", Lower, true)
	}
	return nil
}

// opstoreMetrics pages the profile's compressed slice into an in-memory
// tile store and streams four sequential products through it under a
// budget of half the operator — every tile misses once per pass it is
// needed in, the LRU evicts deterministically (unique recency ticks,
// single worker), and the resulting hit/miss/eviction counts are a pure
// function of the tile geometry and budget, so they gate.
func opstoreMetrics(add func(name string, value float64, unit, direction string, gate bool), tm *tlr.Matrix) error {
	var buf bytes.Buffer
	k := &tlrio.Kernel{Freqs: []float64{0}, Mats: []*tlr.Matrix{tm}}
	if err := tlrio.WritePaged(&buf, k, tlrio.PagedOptions{}); err != nil {
		return fmt.Errorf("benchreport: paging slice: %w", err)
	}
	st, err := opstore.OpenBytes(buf.Bytes(), tm.CompressedBytes()/2)
	if err != nil {
		return fmt.Errorf("benchreport: opening store: %w", err)
	}
	ooc, err := st.Matrix(0)
	if err != nil {
		return fmt.Errorf("benchreport: store matrix: %w", err)
	}
	x := make([]complex64, tm.N)
	for i := range x {
		x[i] = complex(float32(i%7)-3, float32(i%5)-2)
	}
	y := make([]complex64, tm.M)
	before := obs.TakeSnapshot()
	for pass := 0; pass < 4; pass++ {
		ooc.MulVec(x, y)
	}
	after := obs.TakeSnapshot()
	delta := func(name string) float64 {
		return float64(after.Counter(name) - before.Counter(name))
	}
	add("opstore.hits", delta("opstore.hits"), "hits", Higher, true)
	add("opstore.misses", delta("opstore.misses"), "misses", Lower, true)
	add("opstore.evictions", delta("opstore.evictions"), "evictions", Lower, true)
	if res, ok := after.Gauge("opstore.bytes_resident"); ok {
		add("opstore.bytes_resident", float64(res), "B", Lower, true)
	}
	return nil
}

// serveMetrics drives the mddserve job service end to end. Two phases:
// a deterministic admission burst against a paused server whose limits
// are saturated by construction (exactly one tenant_limit and one
// queue_full rejection), then a mixed compress/tlrmvm/mdd throughput
// run sized by the profile. Completion, rejection, and dataset-cache
// counts are pure functions of the burst shape and gate.
func serveMetrics(add func(name string, value float64, unit, direction string, gate bool), p Profile) error {
	ds := mddserve.DatasetSpec{
		NsX: p.Dataset.Geom.NsX, NsY: p.Dataset.Geom.NsY,
		NrX: p.Dataset.Geom.NrX, NrY: p.Dataset.Geom.NrY,
		Nt: p.Dataset.Nt,
	}
	compress := mddserve.JobSpec{Type: mddserve.JobCompress, Dataset: ds, NB: p.NB, Tol: p.Acc}
	before := obs.TakeSnapshot()

	// Phase 1: admission. Workers paused, per-tenant limit 2, queue 4.
	// Tenant "greedy" saturates its limit, tenant "steady" fills the
	// queue, tenant "probe" hits the full queue — one rejection of each
	// kind, deterministically.
	adm := mddserve.New(mddserve.Config{
		Workers: 2, Shards: 4, QueueSize: 4, PerTenantInflight: 2,
		BackoffSleep: func(time.Duration) {},
	})
	adm.Pause()
	var admitted []string
	for _, tenant := range []string{"greedy", "greedy", "steady", "steady"} {
		id, err := adm.Submit(compress, tenant)
		if err != nil {
			return fmt.Errorf("benchreport: serve admission submit: %w", err)
		}
		admitted = append(admitted, id)
	}
	if _, err := adm.Submit(compress, "greedy"); err == nil {
		return fmt.Errorf("benchreport: serve: saturated tenant was admitted")
	}
	if _, err := adm.Submit(compress, "probe"); err == nil {
		return fmt.Errorf("benchreport: serve: job admitted past a full queue")
	}
	adm.Resume()
	for _, id := range admitted {
		if _, err := waitServeJob(adm, id); err != nil {
			return err
		}
	}
	admStats := adm.Stats()
	adm.Close()

	// Phase 2: throughput. A fresh server with ample limits executes a
	// mixed job burst; every job shares one dataset key, so the build
	// cache misses exactly once per server.
	n := p.ServeJobs
	iters := p.SolverIters
	if iters > 4 {
		iters = 4
	}
	srv := mddserve.New(mddserve.Config{
		Workers: 4, Shards: 4, QueueSize: n, PerTenantInflight: n,
		BackoffSleep: func(time.Duration) {},
	})
	defer srv.Close()
	specs := make([]mddserve.JobSpec, n)
	for i := range specs {
		switch i % 4 {
		case 0:
			specs[i] = mddserve.JobSpec{
				Type: mddserve.JobMDD, Dataset: ds, NB: p.NB, Tol: p.Acc, Iters: iters,
			}
		case 2:
			specs[i] = mddserve.JobSpec{
				Type: mddserve.JobTLRMVM, Dataset: ds, NB: p.NB, Tol: p.Acc,
				Reps: 4, Seed: int64(i + 1),
			}
		default:
			specs[i] = compress
		}
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, err := srv.Submit(specs[i], fmt.Sprintf("tenant%d", i%4))
			if err != nil {
				errs[i] = fmt.Errorf("benchreport: serve throughput submit: %w", err)
				return
			}
			st, err := waitServeJob(srv, id)
			if err != nil {
				errs[i] = err
				return
			}
			if st.State != mddserve.StateDone {
				errs[i] = fmt.Errorf("benchreport: serve job %s ended %s: %s", id, st.State, st.Error)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	after := obs.TakeSnapshot()
	delta := func(name string) float64 {
		return float64(after.Counter(name) - before.Counter(name))
	}
	stats := srv.Stats()

	add("serve.jobs.completed", float64(admStats.Completed+stats.Completed), "jobs", Higher, true)
	add("serve.jobs.failed", float64(admStats.Failed+stats.Failed), "jobs", Lower, true)
	add("serve.admission.rejects.queue", float64(admStats.RejectsQueue), "rejects", Lower, true)
	add("serve.admission.rejects.tenant", float64(admStats.RejectsTenant), "rejects", Lower, true)
	add("serve.cache.misses", delta("serve.cache.misses"), "builds", Lower, true)
	add("serve.cache.hits", delta("serve.cache.hits"), "hits", Higher, true)
	return nil
}

// waitServeJob polls a job until it reaches a terminal state.
func waitServeJob(s *mddserve.Server, id string) (mddserve.JobStatus, error) {
	for {
		st, ok := s.Status(id)
		if !ok {
			return mddserve.JobStatus{}, fmt.Errorf("benchreport: serve job %s vanished", id)
		}
		if st.State.Terminal() {
			return st, nil
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// paperScaleMetrics evaluates three of the paper's published deployments
// (internal/ranks/paper.go) on the CS-2 machine model — the cycle counts
// and aggregate bandwidths of Tables 2 and 5 plus the §7.6 power figure.
// All outputs are deterministic and therefore gate.
func paperScaleMetrics(add func(name string, value float64, unit, direction string, gate bool)) error {
	var pm wse.PaperModel
	m2, err := pm.Evaluate(ranks.PaperSixShard[2].PaperPlan) // nb=70 acc=1e-4, sw=23
	if err != nil {
		return fmt.Errorf("benchreport: Table 2 plan: %w", err)
	}
	add("cs2.table2.worst_cycles", float64(m2.WorstCycles), "cycles", Lower, true)
	add("cs2.table2.relative_bytes", float64(m2.RelativeBytes), "B", Lower, true)
	add("cs2.table2.absolute_bytes", float64(m2.AbsoluteBytes), "B", Lower, true)

	m5, err := pm.Evaluate(ranks.PaperFortyEight[2].PaperPlan) // the same layout on 48 systems
	if err != nil {
		return fmt.Errorf("benchreport: Table 5 plan: %w", err)
	}
	add("cs2.table5.rel_pbps", m5.RelativeBW/1e15, "PB/s", Higher, true)
	add("cs2.table5.abs_pbps", m5.AbsoluteBW/1e15, "PB/s", Higher, true)
	add("cs2.table5.pflops", m5.FlopRate/1e15, "PFlop/s", Higher, true)

	plan, err := pm.Plan(ranks.PaperPower.PaperPlan) // nb=25 acc=1e-4, sw=64
	if err != nil {
		return fmt.Errorf("benchreport: power plan: %w", err)
	}
	m1, err := plan.Evaluate()
	if err != nil {
		return fmt.Errorf("benchreport: power plan: %w", err)
	}
	add("cs2.table1.occupancy_pct", m1.Occupancy*100, "%", Higher, true)
	pw := plan.Power(m1)
	add("cs2.power.gflops_per_watt", pw.GFlopsPerWatt, "GFlop/s/W", Higher, true)
	return nil
}
