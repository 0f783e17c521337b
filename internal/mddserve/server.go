// Package mddserve is the MDD-as-a-service layer: an HTTP/JSON front
// end over the fault-tolerant execution stack (batch.ShardRunner,
// mdd.InvertResilient, the checkpointed fallible solvers) that lets
// concurrent callers submit compression, TLR-MVM, and MDD inversion
// jobs, poll or stream their progress, and cancel them — the skeleton
// of the paper's 48-CS-2 shared facility serving many users at once.
//
// Concurrency shape: a bounded FIFO admission queue feeds a fixed pool
// of workers, each owning one batch.ShardRunner whose shard health
// persists across jobs (a shard that dies serving one job stays dead
// for the next, like a failed physical system awaiting an operator).
// Admission control rejects with 429 when the queue is full or a tenant
// exceeds its in-flight budget, so overload surfaces as backpressure
// the typed client retries, never as unbounded memory growth.
//
// Builds are cached at two levels, both run on the workers: one
// generated, Hilbert-reordered survey per dataset (the paper's §6.1
// pre-processing, done once), shared read-only by every (nb, tol) build
// on it, so a job whose build the cache has not seen only compresses and
// binds.
package mddserve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/cfloat"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lsqr"
	"repro/internal/mdc"
	"repro/internal/mdd"
	"repro/internal/obs"
	"repro/internal/seismic"
	"repro/internal/sfc"
	"repro/internal/tlr"
)

// Serving-layer metrics: submission/terminal counters, admission
// rejects split by cause, live queue depth, per-job latency (submit to
// terminal), build- and survey-cache effectiveness, and the tenant
// in-flight high-water mark the load tests assert against.
var (
	obsSubmitted     = obs.NewCounter("serve.jobs.submitted")
	obsCompleted     = obs.NewCounter("serve.jobs.completed")
	obsFailed        = obs.NewCounter("serve.jobs.failed")
	obsCancelled     = obs.NewCounter("serve.jobs.cancelled")
	obsRejectQueue   = obs.NewCounter("serve.admission.rejects.queue")
	obsRejectTenant  = obs.NewCounter("serve.admission.rejects.tenant")
	obsQueueDepth    = obs.NewGauge("serve.queue.depth")
	obsJobLatency    = obs.NewTimer("serve.job.latency")
	obsCacheHits     = obs.NewCounter("serve.cache.hits")
	obsCacheMisses   = obs.NewCounter("serve.cache.misses")
	obsSurveyHits    = obs.NewCounter("serve.survey.hits")
	obsSurveyMisses  = obs.NewCounter("serve.survey.misses")
	obsStreamEvents  = obs.NewCounter("serve.stream.events")
	obsPeakInflight  = obs.NewGauge("serve.tenant.peak_inflight")
	obsSolveRestarts = obs.NewCounter("serve.solve.restarts")
)

// Config sizes the service.
type Config struct {
	// Workers is the job-execution pool size (default 2). Each worker
	// owns one ShardRunner.
	Workers int
	// Shards is the simulated CS-2 shard count per worker runner
	// (default 4).
	Shards int
	// QueueSize bounds the admission queue (default 16); a full queue
	// rejects with 429/queue_full.
	QueueSize int
	// PerTenantInflight bounds one tenant's queued+running jobs
	// (default 8); exceeding it rejects with 429/tenant_limit.
	PerTenantInflight int
	// MaxSources, MaxReceivers, MaxNt, MaxIters, MaxReps cap job sizes;
	// oversize specs reject with 413/too_large. Defaults 512, 256, 512,
	// 500, 1000.
	MaxSources   int
	MaxReceivers int
	MaxNt        int
	MaxIters     int
	MaxReps      int
	// Faults, when non-empty, attaches a fresh deterministic injector
	// with this schedule to every mdd job's sharded execution — the
	// chaos-over-HTTP hook. Shard targets ("shard0"…) fire on the
	// per-job product streams; target "op" fires on whole products.
	Faults fault.Schedule
	// FaultSleep replaces time.Sleep for injected latency events.
	FaultSleep func(time.Duration)
	// BackoffSleep replaces time.Sleep for shard-retry backoff (tests
	// inject a no-op to keep chaos schedules fast).
	BackoffSleep func(time.Duration)
	// StoreDir, when non-empty, switches each built dataset's compressed
	// kernel to the out-of-core tile store: the kernel is written to
	// StoreDir/<specKey>.tlrp once at build time and every MDD product
	// streams tiles through a byte-budgeted tile cache instead of holding
	// the whole operator resident — the paper's memory-wall serving mode.
	StoreDir string
	// StoreBudget is the per-kernel resident-byte budget of the tile
	// cache in StoreDir mode. 0 defaults to half the kernel's compressed
	// footprint, so products genuinely stream the tiles it cannot keep.
	StoreBudget int64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 16
	}
	if c.PerTenantInflight <= 0 {
		c.PerTenantInflight = 8
	}
	if c.MaxSources <= 0 {
		c.MaxSources = 512
	}
	if c.MaxReceivers <= 0 {
		c.MaxReceivers = 256
	}
	if c.MaxNt <= 0 {
		c.MaxNt = 512
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 500
	}
	if c.MaxReps <= 0 {
		c.MaxReps = 1000
	}
	return c
}

// validateSize applies the admission size caps to a structurally valid
// spec; a non-nil error means 413. Each grid factor is compared with
// the cap over its partner and no product is formed, so a grid whose
// point count overflows int is rejected rather than wrapped into range.
func (c Config) validateSize(s *JobSpec) error {
	d := s.Dataset
	if d.NsX > c.MaxSources/d.NsY {
		return fmt.Errorf("%dx%d sources exceeds the %d-source cap", d.NsX, d.NsY, c.MaxSources)
	}
	if d.NrX > c.MaxReceivers/d.NrY {
		return fmt.Errorf("%dx%d receivers exceeds the %d-receiver cap", d.NrX, d.NrY, c.MaxReceivers)
	}
	if d.Nt > c.MaxNt {
		return fmt.Errorf("nt %d exceeds the %d-sample cap", d.Nt, c.MaxNt)
	}
	if s.Iters > c.MaxIters {
		return fmt.Errorf("%d iterations exceeds the %d-iteration cap", s.Iters, c.MaxIters)
	}
	if s.Reps > c.MaxReps {
		return fmt.Errorf("%d reps exceeds the %d-rep cap", s.Reps, c.MaxReps)
	}
	return nil
}

// job is the server-side lifecycle record of one submission.
type job struct {
	id     string
	tenant string
	spec   JobSpec

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	state  State
	errMsg string
	result *JobResult
	events []Event
	// notify is closed and replaced on every state/event change so
	// streamers can wait without polling.
	notify chan struct{}

	latency obs.Span
}

// transition moves the job from one specific state to another and
// publishes a state event; it reports whether the move happened. The
// compare-and-set discipline is what makes a concurrent Cancel against
// a dequeuing worker race-free: exactly one of them wins the move out
// of StateQueued.
func (j *job) transition(from, to State) bool {
	j.mu.Lock()
	if j.state != from {
		j.mu.Unlock()
		return false
	}
	j.state = to
	j.events = append(j.events, Event{Seq: len(j.events), Kind: EventState, State: to})
	wake := j.notify
	j.notify = make(chan struct{})
	j.mu.Unlock()
	obsStreamEvents.Add(1)
	close(wake)
	return true
}

// publishResidual appends one per-iteration residual event.
func (j *job) publishResidual(iter int, residual float64) {
	j.mu.Lock()
	j.events = append(j.events, Event{
		Seq: len(j.events), Kind: EventResidual, Iter: iter, Residual: residual,
	})
	wake := j.notify
	j.notify = make(chan struct{})
	j.mu.Unlock()
	obsStreamEvents.Add(1)
	close(wake)
}

// status snapshots the job for the poll endpoint.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID: j.id, Type: j.spec.Type, Tenant: j.tenant,
		State: j.state, Error: j.errMsg, Result: j.result,
		Events: len(j.events),
	}
}

// built is one cached kernel build, shared by every job with the same
// spec key — the "many inversions, one compressed operator" economy of
// the shared facility. Its dataset is the survey cache's, shared with
// every other build on the same dataset key.
type built struct {
	// pipe is the built problem; in StoreDir mode it owns the open tile
	// store, which stays open for the server's lifetime and closes with
	// it.
	pipe *core.Pipeline
	// slice is the TLR-compressed middle frequency slice used by tlrmvm
	// jobs, taken before store-backing so it stays in memory.
	slice *tlr.Matrix
}

// Server is the in-process service instance; Handler() exposes it over
// HTTP and Close drains it.
type Server struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*job
	jobs    map[string]*job
	tenants map[string]int
	peaks   map[string]int
	paused  bool
	closed  bool
	nextID  int
	stats   Stats

	// surveys holds one reordered survey per surveyKey, builds one
	// build per specKey; only successes stay.
	surveys *memo[*core.Survey]
	builds  *memo[*built]

	wg sync.WaitGroup
}

// New starts a server and its worker pool.
func New(cfg Config) *Server {
	s := &Server{
		cfg:     cfg.withDefaults(),
		jobs:    map[string]*job{},
		tenants: map[string]int{},
		peaks:   map[string]int{},
		surveys: newMemo[*core.Survey](obsSurveyHits, obsSurveyMisses),
		builds:  newMemo[*built](obsCacheHits, obsCacheMisses),
	}
	s.cond = sync.NewCond(&s.mu)
	for w := 0; w < s.cfg.Workers; w++ {
		runner, err := batch.NewShardRunner(batch.ShardOptions{
			Shards: s.cfg.Shards,
			Sleep:  s.cfg.BackoffSleep,
		})
		if err != nil {
			// Config defaults guarantee Shards >= 1; this is unreachable.
			panic(err)
		}
		s.wg.Add(1)
		go s.worker(runner)
	}
	return s
}

// Close stops admission, drains queued and running jobs, waits for the
// worker pool to exit, and closes the cached pipelines so shutdown
// orphans no tile store. Builds run only on the workers, so once they
// have exited every cached build is ready.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.paused = false
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
	for _, b := range s.builds.ready() {
		b.pipe.Close()
	}
}

// Pause parks the worker pool before its next dequeue: accepted jobs
// stay queued, which makes admission-control behaviour (queue-full
// counts, per-tenant limits) exactly deterministic for tests and the
// bench harness.
func (s *Server) Pause() {
	s.mu.Lock()
	s.paused = true
	s.mu.Unlock()
}

// Resume releases a Pause.
func (s *Server) Resume() {
	s.mu.Lock()
	s.paused = false
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Stats returns a copy of the server's deterministic accounting.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.QueueDepth = len(s.queue)
	st.PeakInflight = make(map[string]int, len(s.peaks))
	for t, p := range s.peaks {
		st.PeakInflight[t] = p
	}
	return st
}

// submitErr classifies an admission rejection.
type submitErr struct {
	code string
	msg  string
}

func (e *submitErr) Error() string { return e.msg }

// Submit validates and enqueues a job, returning its ID. The error,
// when non-nil, is a *submitErr whose code maps onto an HTTP status in
// http.go.
func (s *Server) Submit(spec JobSpec, tenant string) (string, error) {
	if tenant == "" {
		tenant = "anonymous"
	}
	if err := spec.Validate(); err != nil {
		return "", &submitErr{code: CodeBadRequest, msg: err.Error()}
	}
	if err := s.cfg.validateSize(&spec); err != nil {
		return "", &submitErr{code: CodeTooLarge, msg: err.Error()}
	}
	applySpecDefaults(&spec)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return "", &submitErr{code: CodeShutdown, msg: "server is shutting down"}
	}
	if s.tenants[tenant] >= s.cfg.PerTenantInflight {
		s.stats.RejectsTenant++
		s.mu.Unlock()
		obsRejectTenant.Add(1)
		return "", &submitErr{code: CodeTenantLimit,
			msg: fmt.Sprintf("tenant %q already has %d jobs in flight", tenant, s.cfg.PerTenantInflight)}
	}
	if len(s.queue) >= s.cfg.QueueSize {
		s.stats.RejectsQueue++
		s.mu.Unlock()
		obsRejectQueue.Add(1)
		return "", &submitErr{code: CodeQueueFull,
			msg: fmt.Sprintf("admission queue is full (%d jobs)", s.cfg.QueueSize)}
	}
	s.nextID++
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:     "job-" + strconv.Itoa(s.nextID),
		tenant: tenant,
		spec:   spec,
		ctx:    ctx,
		cancel: cancel,
		state:  StateQueued,
		notify: make(chan struct{}),
	}
	j.events = append(j.events, Event{Seq: 0, Kind: EventState, State: StateQueued})
	j.latency = obsJobLatency.Start()
	s.jobs[j.id] = j
	s.queue = append(s.queue, j)
	s.tenants[tenant]++
	if s.tenants[tenant] > s.peaks[tenant] {
		s.peaks[tenant] = s.tenants[tenant]
	}
	peak := s.peaks[tenant]
	depth := len(s.queue)
	s.stats.Submitted++
	s.mu.Unlock()

	s.cond.Signal()
	obsSubmitted.Add(1)
	obsQueueDepth.Set(int64(depth))
	if g, ok := obsPeakInflight.Value(); !ok || int64(peak) > g {
		obsPeakInflight.Set(int64(peak))
	}
	obsStreamEvents.Add(1) // the queued state event
	return j.id, nil
}

// applySpecDefaults fills the optional knobs of a valid spec.
func applySpecDefaults(spec *JobSpec) {
	if spec.NB == 0 {
		spec.NB = 8
	}
	if spec.Tol == 0 {
		spec.Tol = 1e-4
	}
	if spec.Iters == 0 {
		spec.Iters = 10
	}
	if spec.Reps == 0 {
		spec.Reps = 1
	}
}

// jobByID returns the lifecycle record for id.
func (s *Server) jobByID(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Status returns the poll snapshot for id.
func (s *Server) Status(id string) (JobStatus, bool) {
	j, ok := s.jobByID(id)
	if !ok {
		return JobStatus{}, false
	}
	return j.status(), true
}

// Cancel requests cancellation: a queued job is cancelled immediately
// (the worker skips it); a running job's context is cancelled and the
// solver aborts at its next operator product. Cancelling a terminal
// job is a no-op. The returned bool is false when id is unknown.
func (s *Server) Cancel(id string) (JobStatus, bool) {
	j, ok := s.jobByID(id)
	if !ok {
		return JobStatus{}, false
	}
	if j.transition(StateQueued, StateCancelled) {
		// Never started: the worker skips it at dequeue.
		s.finish(j, StateCancelled)
	} else {
		// Running (or terminal, where this is a no-op): abort the solve.
		j.cancel()
	}
	return j.status(), true
}

// worker executes jobs from the queue on its own ShardRunner until the
// server closes and the queue drains.
func (s *Server) worker(runner *batch.ShardRunner) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.closed && (s.paused || len(s.queue) == 0) {
			// Wakeup protocol: Submit signals, and Resume and Close
			// broadcast, after changing the predicate under s.mu, and the
			// loop rechecks closed/paused/queue before waiting again.
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			// closed and drained
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		depth := len(s.queue)
		s.mu.Unlock()
		obsQueueDepth.Set(int64(depth))

		if !j.transition(StateQueued, StateRunning) {
			continue // cancelled while queued; already finished
		}
		s.run(runner, j)
	}
}

// run executes one job (already moved to StateRunning) to a terminal
// state.
func (s *Server) run(runner *batch.ShardRunner, j *job) {
	res, err := s.execute(runner, j)
	switch {
	case err == nil:
		j.mu.Lock()
		j.result = res
		j.mu.Unlock()
		j.transition(StateRunning, StateDone)
		s.finish(j, StateDone)
	case errors.Is(err, context.Canceled):
		j.transition(StateRunning, StateCancelled)
		s.finish(j, StateCancelled)
	default:
		j.mu.Lock()
		j.errMsg = err.Error()
		j.mu.Unlock()
		j.transition(StateRunning, StateFailed)
		s.finish(j, StateFailed)
	}
}

// finish releases the job's tenant slot and records terminal metrics.
func (s *Server) finish(j *job, terminal State) {
	s.mu.Lock()
	if s.tenants[j.tenant] > 0 {
		s.tenants[j.tenant]--
	}
	switch terminal {
	case StateDone:
		s.stats.Completed++
	case StateFailed:
		s.stats.Failed++
	case StateCancelled:
		s.stats.Cancelled++
	}
	s.mu.Unlock()
	switch terminal {
	case StateDone:
		obsCompleted.Add(1)
	case StateFailed:
		obsFailed.Add(1)
	case StateCancelled:
		obsCancelled.Add(1)
	}
	j.latency.End()
	j.cancel() // release the context's resources
}

// execute dispatches on job type.
func (s *Server) execute(runner *batch.ShardRunner, j *job) (*JobResult, error) {
	b, err := s.built(j.ctx, j.spec)
	if err != nil {
		return nil, err
	}
	if err := j.ctx.Err(); err != nil {
		return nil, err
	}
	switch j.spec.Type {
	case JobCompress:
		pv := b.pipe.Provenance
		return &JobResult{
			CompressionRatio: pv.CompressionRatio(),
			DenseBytes:       pv.DenseBytes,
			CompressedBytes:  pv.CompressedBytes,
		}, nil
	case JobTLRMVM:
		return runTLRMVM(j, b)
	case JobMDD:
		return s.runMDD(runner, j, b)
	}
	return nil, fmt.Errorf("unknown job type %q", j.spec.Type)
}

// runTLRMVM drives Reps TLR matrix-vector products (MulVec) over the
// cached compressed slice with a deterministic seeded input.
func runTLRMVM(j *job, b *built) (*JobResult, error) {
	tm := b.slice
	rng := rand.New(rand.NewSource(j.spec.Seed + 1))
	x := make([]complex64, tm.N)
	for i := range x {
		x[i] = complex(rng.Float32()-0.5, rng.Float32()-0.5)
	}
	y := make([]complex64, tm.M)
	for r := 0; r < j.spec.Reps; r++ {
		if err := j.ctx.Err(); err != nil {
			return nil, err
		}
		tm.MulVec(x, y)
	}
	return &JobResult{YNorm: cfloat.Nrm2(y)}, nil
}

// runMDD runs the fault-tolerant inversion on the worker's runner,
// streaming per-iteration residuals from the solver checkpoints.
func (s *Server) runMDD(runner *batch.ShardRunner, j *job, b *built) (*JobResult, error) {
	prob := b.pipe.Problem
	sop := &mdc.ShardedFreqOperator{K: prob.K, Scale: float32(prob.DS.DArea), Runner: runner}
	var op lsqr.FallibleOperator = sop
	if len(s.cfg.Faults) > 0 {
		inj := fault.NewInjector(s.cfg.Faults)
		if s.cfg.FaultSleep != nil {
			inj.Sleep = s.cfg.FaultSleep
		}
		sop.Intercept = fault.Shard(inj)
		op = fault.WrapOperator(sop, inj, "op")
	}
	op = &ctxOperator{ctx: j.ctx, op: op}

	out, err := mdd.InvertResilient(op, prob.Data(j.spec.VS), mdd.ResilientOptions{
		LSQR:               lsqr.Options{MaxIters: j.spec.Iters},
		CheckpointInterval: 1,
		MaxRestarts:        4,
		OnCheckpoint: func(c *lsqr.Checkpoint) {
			if len(c.History) > 0 {
				j.publishResidual(c.Iter, c.History[len(c.History)-1])
			}
		},
		Fatal: func(err error) bool { return errors.Is(err, context.Canceled) },
	})
	if err != nil && err != lsqr.ErrZeroRHS {
		return nil, fmt.Errorf("mdd solve: %w", err)
	}
	obsSolveRestarts.Add(int64(out.Restarts))
	res := &JobResult{
		InversionNMSE: prob.NMSEAgainstTruth(out.Result.X, j.spec.VS),
		FinalResidual: out.Result.ResidualNorm,
		Iterations:    out.Result.Iters,
		Converged:     out.Result.Converged,
		Restarts:      out.Restarts,
		SalvagedIters: out.SalvagedIters,
		Residuals:     out.Result.ResidualHistory,
	}
	if j.spec.ReturnSolution {
		res.Solution = make([]float32, 2*len(out.Result.X))
		for i, v := range out.Result.X {
			res.Solution[2*i] = real(v)
			res.Solution[2*i+1] = imag(v)
		}
	}
	return res, nil
}

// ctxOperator aborts operator products once the job context is
// cancelled; InvertResilient's Fatal hook turns the abort into an
// immediate return instead of a restart.
type ctxOperator struct {
	ctx context.Context
	op  lsqr.FallibleOperator
}

func (o *ctxOperator) Rows() int { return o.op.Rows() }
func (o *ctxOperator) Cols() int { return o.op.Cols() }

func (o *ctxOperator) Apply(x, y []complex64) error {
	if err := o.ctx.Err(); err != nil {
		return err
	}
	return o.op.Apply(x, y)
}

func (o *ctxOperator) ApplyAdjoint(x, y []complex64) error {
	if err := o.ctx.Err(); err != nil {
		return err
	}
	return o.op.ApplyAdjoint(x, y)
}

// surveyKey identifies one cached survey: everything that shapes the
// dataset.
func surveyKey(d DatasetSpec) string {
	return fmt.Sprintf("%dx%d-%dx%d-nt%d", d.NsX, d.NsY, d.NrX, d.NrY, d.Nt)
}

// specKey identifies one cached build: the survey and what shapes its
// compressed kernels.
func specKey(spec JobSpec) string {
	return fmt.Sprintf("%s-nb%d-tol%g", surveyKey(spec.Dataset), spec.NB, spec.Tol)
}

// surveyOptions is the synthetic survey a dataset spec describes.
func surveyOptions(d DatasetSpec) seismic.Options {
	return seismic.Options{
		Geom: seismic.Geometry{
			NsX: d.NsX, NsY: d.NsY, NrX: d.NrX, NrY: d.NrY,
			Dx: 20, Dy: 20, SrcDepth: 10, RecDepth: 300,
		},
		Nt: d.Nt, Dt: 0.004,
	}
}

// built returns the cached build for the spec, generating its survey
// and building on it at most once per key. A job that finds either in
// flight for another job waits for it, or for its own context, so a
// cancelled job never wedges a worker behind a build it does not own.
// The survey is fetched before the build is entered, so a build's
// waiters never see its owner's cancellation.
func (s *Server) built(ctx context.Context, spec JobSpec) (*built, error) {
	sv, err := s.surveys.get(ctx, surveyKey(spec.Dataset), func() (*core.Survey, error) {
		return core.NewSurvey(surveyOptions(spec.Dataset), sfc.Hilbert)
	})
	if err != nil {
		return nil, err
	}
	return s.builds.get(ctx, specKey(spec), func() (*built, error) { return s.build(spec, sv) })
}

// build compresses the survey's kernel and keeps the mid-band slice for
// tlrmvm jobs. In StoreDir mode the kernel then moves behind a paged tile
// store, so the problem's matrices fault tiles in.
func (s *Server) build(spec JobSpec, sv *core.Survey) (*built, error) {
	pipe, err := sv.Build(core.PipelineOptions{TileSize: spec.NB, Accuracy: spec.Tol})
	if err != nil {
		return nil, err
	}
	b := &built{pipe: pipe, slice: pipe.Kernel.Mats[pipe.DS.NumFreqs()/2]}
	if s.cfg.StoreDir != "" {
		budget := s.cfg.StoreBudget
		if budget <= 0 {
			budget = pipe.Provenance.CompressedBytes / 2
		}
		path := filepath.Join(s.cfg.StoreDir, specKey(spec)+".tlrp")
		if err := pipe.StoreBack(path, budget, nil); err != nil {
			return nil, err
		}
	}
	return b, nil
}
