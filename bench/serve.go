package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/cfloat"
	"repro/internal/lsqr"
	"repro/internal/mdd"
	"repro/internal/mddclient"
	"repro/internal/mddserve"
	"repro/internal/obs"
	"repro/internal/tlr"
)

// serveSpec sizes serve-mix: a closed loop of tenants, each submitting
// its next job when the previous one has reached a terminal state. The
// schedule is made of blocks with a fixed composition, so that runs of
// different seeds do the same amount of each kind of work.
type serveSpec struct {
	hot     mddserve.DatasetSpec
	nb      int
	tol     float64
	iters   int
	reps    int
	tenants int
	blocks  int // per tenant
	// one block: mdd, tlrmvm and compress jobs on the hot build in
	// seeded order, and one mdd job whose build the cache has not seen
	mdd, tlrmvm, compress int
}

func (s serveSpec) blockLen() int { return s.mdd + s.tlrmvm + s.compress + 1 }

const (
	serveWorkers = 2
	serveShards  = 2
)

// jobPlan is one scheduled job.
type jobPlan struct {
	spec mddserve.JobSpec
	cold bool
}

// schedule returns one tenant's jobs: a function of the seed and the
// tenant alone.
func (s serveSpec) schedule(seed int64, tenant int) []jobPlan {
	rng := rand.New(rand.NewSource(seed*int64(s.tenants) + int64(tenant)))
	var plans []jobPlan
	for b := 0; b < s.blocks; b++ {
		kinds := make([]mddserve.JobType, 0, s.blockLen())
		for _, k := range []struct {
			t mddserve.JobType
			n int
		}{{mddserve.JobMDD, s.mdd}, {mddserve.JobTLRMVM, s.tlrmvm}, {mddserve.JobCompress, s.compress}} {
			for i := 0; i < k.n; i++ {
				kinds = append(kinds, k.t)
			}
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		// Every blockLen-th job of a tenant is the cold one; the tenants
		// are staggered (the last slot for tenant 0, mid-block for tenant 1
		// of 2) so that two builds do not run at once by construction —
		// left to chance, whether they coincide makes peak_rss_mb bimodal.
		coldSlot := s.blockLen() - 1 - tenant*s.blockLen()/s.tenants
		for slot := 0; slot < s.blockLen(); slot++ {
			spec := mddserve.JobSpec{Type: mddserve.JobMDD, Dataset: s.hot, NB: s.nb, Tol: s.tol}
			if slot != coldSlot {
				spec.Type, kinds = kinds[0], kinds[1:]
			}
			switch spec.Type {
			case mddserve.JobMDD:
				spec.VS, spec.Iters = rng.Intn(s.hot.Receivers()), s.iters
			case mddserve.JobTLRMVM:
				spec.Reps, spec.Seed = s.reps, rng.Int63n(1<<31)
			}
			if slot == coldSlot {
				// a (nb, tol) pair no other job of the run carries: the
				// build cache misses
				spec.NB = []int{8, 12, 24}[rng.Intn(3)]
				spec.Tol = s.tol * (1 + float64(tenant*s.blocks+b+1)/1e3)
			}
			plans = append(plans, jobPlan{spec: spec, cold: slot == coldSlot})
		}
	}
	return plans
}

// jobRecord is what the client saw of one job. Times are nanoseconds
// since the service was started.
type jobRecord struct {
	plan   jobPlan
	tenant int
	phase  int // 0: untraced, 1: traced
	// submit start, POST returned, running event, first residual event,
	// terminal state event
	t0, tSub, tRun, tFirst, tEnd int64
	events                       int
	status                       *mddserve.JobStatus
	err                          error
}

func (j *jobRecord) ms() float64 { return float64(j.tEnd-j.t0) / 1e6 }

// service is one started server with its HTTP front end.
type service struct {
	srv   *mddserve.Server
	ts    *httptest.Server
	tr    *http.Transport
	epoch time.Time
}

func (s *service) client(tenant string) *mddclient.Client {
	return mddclient.New(s.ts.URL, mddclient.Options{Tenant: tenant, HTTPClient: &http.Client{Transport: s.tr}})
}

func (s *service) close() {
	s.tr.CloseIdleConnections()
	s.ts.Close()
	s.srv.Close()
}

// startService starts the server and runs one mdd job on the hot spec,
// so the hot build is cached before the loop starts.
func startService(ctx context.Context, spec serveSpec) (*service, error) {
	s := &service{epoch: time.Now(), tr: &http.Transport{MaxIdleConnsPerHost: 8}}
	s.srv = mddserve.New(mddserve.Config{Workers: serveWorkers, Shards: serveShards})
	s.ts = httptest.NewServer(s.srv.Handler())
	warm := &jobRecord{plan: jobPlan{spec: mddserve.JobSpec{
		Type: mddserve.JobMDD, Dataset: spec.hot, NB: spec.nb, Tol: spec.tol, Iters: spec.iters}}}
	s.runJob(ctx, s.client("warm"), warm)
	if warm.err != nil || warm.status.State != mddserve.StateDone {
		s.close()
		return nil, fmt.Errorf("warm job: state %v, error %v", warm.status, warm.err)
	}
	return s, nil
}

// runJob submits one job and follows its event stream to the terminal
// state event: the job is timed from the start of the POST to that
// event, with no polling quantum. The status fetch that follows (for
// the result) is outside the timed interval.
func (s *service) runJob(ctx context.Context, cl *mddclient.Client, j *jobRecord) {
	now := func() int64 { return int64(time.Since(s.epoch)) }
	j.t0 = now()
	id, err := cl.Submit(ctx, j.plan.spec)
	j.tSub = now()
	if err != nil {
		j.err = err
		return
	}
	j.err = cl.Stream(ctx, id, 0, func(ev mddserve.Event) error {
		t := now()
		j.events++
		switch {
		case ev.Kind == mddserve.EventResidual && j.tFirst == 0:
			j.tFirst = t
		case ev.Kind == mddserve.EventState && ev.State == mddserve.StateRunning:
			j.tRun = t
		case ev.Kind == mddserve.EventState && ev.State.Terminal():
			j.tEnd = t
		}
		return nil
	})
	if j.err != nil {
		return
	}
	j.status, j.err = cl.Status(ctx, id)
}

// runLoop drives the tenants in a closed loop over jobs [from, to) of
// their schedules. It returns the records in tenant-then-index order and
// the throughput: the sum over the tenants of jobs per second of their
// own loop.
func (s *service) runLoop(ctx context.Context, spec serveSpec, seed int64, from, to, phase int) ([]*jobRecord, float64) {
	perTenant := make([][]*jobRecord, spec.tenants)
	rate := make([]float64, spec.tenants)
	var wg sync.WaitGroup
	for t := 0; t < spec.tenants; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			cl := s.client(fmt.Sprintf("tenant-%d", t))
			start := time.Now()
			for _, p := range spec.schedule(seed, t)[from:to] {
				j := &jobRecord{plan: p, tenant: t, phase: phase}
				s.runJob(ctx, cl, j)
				perTenant[t] = append(perTenant[t], j)
			}
			rate[t] = float64(to-from) / time.Since(start).Seconds()
		}(t)
	}
	wg.Wait()
	var all []*jobRecord
	for _, js := range perTenant {
		all = append(all, js...)
	}
	return all, sum(rate)
}

// serveReference is the in-process twin of one cached server build,
// used to check every job's result.
type serveReference struct {
	build *surveyBuild
	slice *tlr.Matrix
	// mdd results by virtual source, and how long each inversion took
	mdd   map[int]*mdd.ResilientOutcome
	mddMs []float64
}

func newServeReference(spec mddserve.JobSpec) (*serveReference, error) {
	d := spec.Dataset
	b, err := buildSurvey(surveyGeometry(d.NsX, d.NsY, d.NrX, d.NrY), d.Nt, spec.NB, spec.Tol)
	if err != nil {
		return nil, err
	}
	return &serveReference{build: b, mdd: map[int]*mdd.ResilientOutcome{}}, nil
}

// invert is the direct in-process inversion a served mdd job must
// match: mdd.InvertResilient over the sharded operator.
func (r *serveReference) invert(vs, iters int) (*mdd.ResilientOutcome, error) {
	if out, ok := r.mdd[vs]; ok {
		return out, nil
	}
	sop, err := r.build.prob.ShardedOperator(serveShards)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	out, err := mdd.InvertResilient(sop, r.build.prob.Data(vs), mdd.ResilientOptions{
		LSQR: lsqr.Options{MaxIters: iters}, CheckpointInterval: 1, MaxRestarts: 4,
	})
	if err != nil {
		return nil, err
	}
	r.mddMs = append(r.mddMs, ms(time.Since(t0)))
	r.mdd[vs] = out
	return out, nil
}

// check compares one finished job with the reference and returns what
// differs ("" when nothing does).
func (r *serveReference) check(j *jobRecord) (string, error) {
	res := j.status.Result
	if res == nil {
		return "no result", nil
	}
	prob := r.build.prob
	switch spec := j.plan.spec; spec.Type {
	case mddserve.JobMDD:
		want, err := r.invert(spec.VS, spec.Iters)
		if err != nil {
			return "", err
		}
		wantNMSE := prob.NMSEAgainstTruth(want.Result.X, spec.VS)
		switch {
		case res.Iterations != want.Result.Iters || len(res.Residuals) != len(want.Result.ResidualHistory):
			return "iteration count differs from the in-process inversion", nil
		case !closeTo(res.FinalResidual, want.Result.ResidualNorm, 1e-6):
			return "final residual differs from the in-process inversion", nil
		case !closeTo(res.InversionNMSE, wantNMSE, 1e-6) || !(res.InversionNMSE < 1):
			return "NMSE differs from the in-process inversion", nil
		}
		for i, v := range res.Residuals {
			if !closeTo(v, want.Result.ResidualHistory[i], 1e-6) {
				return "residual history differs from the in-process inversion", nil
			}
		}
	case mddserve.JobTLRMVM:
		if r.slice == nil {
			var err error
			mid := prob.DS.K[prob.DS.NumFreqs()/2]
			if r.slice, err = tlr.Compress(mid, tlr.Options{NB: spec.NB, Tol: spec.Tol}); err != nil {
				return "", err
			}
		}
		// the job's input vector is the API's seeded one; the reference
		// product is the sequential AoS MulVec
		rng := rand.New(rand.NewSource(spec.Seed + 1))
		x := make([]complex64, r.slice.N)
		for i := range x {
			x[i] = complex(rng.Float32()-0.5, rng.Float32()-0.5)
		}
		y := make([]complex64, r.slice.M)
		r.slice.MulVec(x, y)
		if !closeTo(res.YNorm, cfloat.Nrm2(y), 1e-5) {
			return "output norm differs from the AoS reference product", nil
		}
	case mddserve.JobCompress:
		if res.CompressedBytes != r.build.kernel.Bytes() || res.DenseBytes != r.build.denseBytes {
			return "footprint differs from the in-process compression", nil
		}
	}
	return "", nil
}

func runServeMix(cfg runConfig) (*runResult, error) {
	// 70 % mdd, 20 % tlrmvm, 10 % compress, every 25th job cold; 6
	// blocks (150 jobs a tenant) fill 32 s, a block takes about 5.3 s
	spec := serveSpec{
		hot: mddserve.DatasetSpec{NsX: 16, NsY: 12, NrX: 12, NrY: 8, Nt: 256},
		nb:  16, tol: 1e-4, iters: 30, reps: 200,
		tenants: 2, blocks: unitCount(cfg.seconds, 0.15, 2, 6),
		mdd: 17, tlrmvm: 5, compress: 2,
	}
	if cfg.smoke {
		spec.hot = mddserve.DatasetSpec{NsX: 6, NsY: 4, NrX: 4, NrY: 3, Nt: 64}
		spec.nb, spec.iters, spec.reps = 6, 8, 5
		spec.blocks, spec.mdd, spec.tlrmvm, spec.compress = 3, 2, 1, 1
	}
	res := newRunResult()
	m := res.metrics
	ctx := context.Background()

	svc, setupS, err := setUp(cfg.setups(), func() (*service, error) { return startService(ctx, spec) }, (*service).close)
	if err != nil {
		return nil, err
	}
	defer svc.close()

	var jobs []*jobRecord
	var jobsPerS float64
	n := spec.blocks * spec.blockLen()
	if !cfg.trace {
		sampler, err := startRSSSampler()
		if err != nil {
			return nil, err
		}
		jobs, jobsPerS = svc.runLoop(ctx, spec, cfg.seed, 0, n, 0)
		m["peak_rss_mb"] = sampler.Stop()
	} else {
		// The first block runs as in the untraced run, for the overhead.
		// The others run with the obs registry on: the server's cache and
		// retry counters have no other accessor.
		jobs, _ = svc.runLoop(ctx, spec, cfg.seed, 0, spec.blockLen(), 0)
		obs.Reset()
		obs.Enable()
		traced, _ := svc.runLoop(ctx, spec, cfg.seed, spec.blockLen(), n, 1)
		obs.Disable()
		jobs = append(jobs, traced...)
	}
	stats := svc.srv.Stats()
	counters := obs.TakeSnapshot()

	// Checks: every job against the in-process twin of its build.
	refs := map[string]*serveReference{}
	var warmMs, coldMs, firstMs, queueMs, submitMs, relRes, nmse []float64
	var tracedWarm, untracedWarm []float64
	var events int
	for _, j := range jobs {
		res.attempted++
		if j.phase == 1 {
			events += j.events
		}
		if j.err != nil || j.status.State != mddserve.StateDone {
			res.fail("tenant %d %s job: state %v, error %v", j.tenant, j.plan.spec.Type, j.status, j.err)
			continue
		}
		key := fmt.Sprintf("%d/%g", j.plan.spec.NB, j.plan.spec.Tol)
		ref := refs[key]
		if ref == nil {
			var err error
			if ref, err = newServeReference(j.plan.spec); err != nil {
				return nil, err
			}
			refs[key] = ref
		}
		diff, err := ref.check(j)
		if err != nil {
			return nil, err
		}
		if diff != "" {
			res.fail("tenant %d %s job (vs %d): %s", j.tenant, j.plan.spec.Type, j.plan.spec.VS, diff)
			continue
		}
		if j.plan.spec.Type != mddserve.JobMDD {
			continue
		}
		if j.plan.cold {
			coldMs = append(coldMs, j.ms())
			continue
		}
		warmMs = append(warmMs, j.ms())
		if j.phase == 1 {
			tracedWarm = append(tracedWarm, j.ms())
		} else {
			untracedWarm = append(untracedWarm, j.ms())
		}
		firstMs = append(firstMs, float64(j.tFirst-j.t0)/1e6)
		queueMs = append(queueMs, float64(j.tRun-j.t0)/1e6)
		submitMs = append(submitMs, float64(j.tSub-j.t0)/1e6)
		bnorm := cfloat.Nrm2(ref.build.prob.Data(j.plan.spec.VS))
		relRes = append(relRes, j.status.Result.FinalResidual/bnorm)
		nmse = append(nmse, j.status.Result.InversionNMSE)
	}
	res.counts["jobs"] = int64(len(jobs))
	res.counts["warm_mdd_jobs"] = int64(len(warmMs))
	res.counts["cold_jobs"] = int64(len(coldMs))
	res.counts["iters"] = int64(spec.iters)
	if len(warmMs) == 0 {
		return nil, fmt.Errorf("no warm mdd job completed")
	}

	if !cfg.trace {
		m["setup_s"] = median(setupS)
		m["solve_ms_p50"] = median(warmMs)
		m["jobs_per_s"] = jobsPerS
		m["rel_residual"] = median(relRes)
		m["inversion_nmse"] = median(nmse)
		return res, nil
	}

	// Per-layer metrics. The spans are the client's view of each job.
	rec := newRecorder()
	for i, j := range jobs {
		if j.phase != 1 || j.err != nil {
			continue
		}
		root := rec.add("job."+string(j.plan.spec.Type), 0, i+1, j.t0, j.tEnd)
		rec.add("serve.submit", root, i+1, j.t0, j.tSub)
		rec.add("serve.queue_wait", root, i+1, j.tSub, max(j.tSub, j.tRun))
		run := rec.add("serve.run", root, i+1, max(j.tSub, j.tRun), j.tEnd)
		if j.tFirst != 0 {
			rec.add("serve.first_residual", run, i+1, max(j.tSub, j.tRun), j.tFirst)
		}
	}
	res.spans = rec.snapshot()
	hostProbe(m, cfg.smoke)
	hot := refs[fmt.Sprintf("%d/%g", spec.nb, spec.tol)]
	if hot == nil {
		return nil, fmt.Errorf("no job ran on the hot spec")
	}
	m["trace.spans"] = float64(len(res.spans))
	if len(tracedWarm) > 0 && len(untracedWarm) > 0 {
		m["trace.overhead_pct"] = 100 * (median(tracedWarm)/median(untracedWarm) - 1)
	}
	m["failed_share"] = float64(res.failed) / float64(res.attempted)
	m["job_ms_p95"] = percentile(warmMs, 0.95)
	m["first_residual_ms_p50"] = median(firstMs)
	m["cold_job_ms_p50"] = median(coldMs)
	m["serve.queue_wait_ms_p50"] = median(queueMs)
	m["serve.submit_ms_p50"] = median(submitMs)
	if len(coldMs) > 0 {
		// outside-in: what a cold job costs beyond a warm one is its build
		m["serve.build_s"] = (median(coldMs) - median(warmMs)) / 1e3
	}
	m["serve.cache_hits"] = float64(counters.Counter("serve.cache.hits"))
	m["serve.cache_misses"] = float64(counters.Counter("serve.cache.misses"))
	m["serve.rejects"] = float64(stats.RejectsQueue + stats.RejectsTenant)
	m["serve.stream_events"] = float64(events)
	m["serve.overhead_ms"] = median(warmMs) - median(hot.mddMs)
	m["client.retries"] = float64(counters.Counter("mddclient.retries"))
	m["batch.retries"] = float64(counters.Counter("batch.shard.retries"))
	m["batch.failovers"] = float64(counters.Counter("batch.shard.failovers"))
	m["lsqr.iters"] = float64(spec.iters)

	dispatch, err := shardDispatchMicros(hot.build.kernel.NumFreqs())
	if err != nil {
		return nil, err
	}
	m["batch.shard_dispatch_us_per_task"] = dispatch
	opBytes := hot.build.kernel.Bytes()
	fillOperatorSize(m, opBytes, 0, 0)
	if err := probeTLR(m, hot.build.kernel.Mats[hot.build.kernel.NumFreqs()/2]); err != nil {
		return nil, err
	}
	m["tlr.compress_s"] = hot.build.compressS
	m["tlr.compression_ratio"] = float64(hot.build.denseBytes) / float64(opBytes)
	m["seismic.generate_s"] = hot.build.generateS
	m["seismic.reorder_s"] = hot.build.reorderS
	return res, nil
}

// shardDispatchMicros times batch.ShardRunner.Run over n tasks that do
// nothing: the per-task cost of queueing, stealing and validation.
func shardDispatchMicros(n int) (float64, error) {
	runner, err := batch.NewShardRunner(batch.ShardOptions{Shards: serveShards})
	if err != nil {
		return 0, err
	}
	tasks := make([]batch.ShardTask, n)
	for i := range tasks {
		tasks[i] = batch.ShardTask{ID: i, X: make([]complex64, 1), Y: make([]complex64, 1)}
	}
	var runErr error
	secs := timeReps(func() {
		if err := runner.Run(tasks, func(int, batch.ShardTask) error { return nil }); err != nil {
			runErr = err
		}
	})
	return 1e6 * secs / float64(n), runErr
}
