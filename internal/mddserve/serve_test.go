// Unit tests for the server core, below the HTTP layer: spec
// validation, admission accounting, the queued/running/cancel CAS, and
// the build-once survey and build caches. Internal package so the tests can
// observe the cache and job records directly.
package mddserve

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lsqr"
	"repro/internal/mdc"
	"repro/internal/mdd"
	"repro/internal/obs"
	"repro/internal/testkit/suite"
)

func testSpec(typ JobType) JobSpec {
	return JobSpec{Type: typ, Dataset: DatasetSpec{NsX: 4, NsY: 3, NrX: 3, NrY: 3, Nt: 32}}
}

func testConfig() Config {
	return Config{Workers: 1, BackoffSleep: func(time.Duration) {}}
}

// cached counts the entries of c, finished or in flight.
func cached[V any](c *memo[V]) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// waitBound bounds every wait in these tests for a wakeup or a
// cancellation, so a missing one fails the waiting test by name in
// seconds instead of hanging the binary until its timeout.
const waitBound = 10 * time.Second

// newServer starts a server that is closed, within waitBound, when the
// test ends.
func newServer(t *testing.T, cfg Config) *Server {
	s := New(cfg)
	t.Cleanup(func() { closeWithin(t, s) })
	return s
}

// closeWithin closes s and reports whether Close returned within
// waitBound; when it did not, the test has failed.
func closeWithin(t *testing.T, s *Server) bool {
	t.Helper()
	if !within(s.Close) {
		t.Errorf("Close did not return within %v", waitBound)
		return false
	}
	return true
}

// within runs fn on its own goroutine and reports whether it returned
// within waitBound. When it did not, fn is still blocked.
func within(fn func()) bool {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
		return true
	case <-time.After(waitBound):
		return false
	}
}

// waitParked waits until the server's n workers are parked on its
// condition variable, so the next call has to wake them.
func waitParked(t *testing.T, n int) {
	t.Helper()
	if !suite.WaitParked("mddserve.(*Server).worker", n, waitBound) {
		t.Fatalf("%d worker(s) not parked within %v", n, waitBound)
	}
}

// waitState polls the job's status snapshot until it is in a state
// accepted by done, for at most waitBound.
func waitState(t *testing.T, s *Server, id string, done func(State) bool) JobStatus {
	t.Helper()
	deadline := time.Now().Add(waitBound)
	for {
		st, ok := s.status(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if done(st.State) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s for %v", id, st.State, waitBound)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitTerminal waits until the job is terminal.
func waitTerminal(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	return waitState(t, s, id, State.Terminal)
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*JobSpec)
		substr string
	}{
		{"bad type", func(s *JobSpec) { s.Type = "explode" }, "unknown job type"},
		{"degenerate grid", func(s *JobSpec) { s.Dataset.NrX = 1 }, "must be >= 2"},
		{"nt not power of two", func(s *JobSpec) { s.Dataset.Nt = 48 }, "power of two"},
		{"nt too small", func(s *JobSpec) { s.Dataset.Nt = 8 }, "power of two"},
		{"negative iters", func(s *JobSpec) { s.Iters = -1 }, "non-negative"},
		{"vs out of range", func(s *JobSpec) { s.Type = JobMDD; s.VS = 9 }, "virtual source"},
	}
	for _, tc := range cases {
		spec := testSpec(JobCompress)
		tc.mutate(&spec)
		err := spec.validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, spec)
			continue
		}
		if got := err.Error(); !contains(got, tc.substr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, got, tc.substr)
		}
	}
	good := testSpec(JobMDD)
	good.VS = 8
	if err := good.validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestSizeCaps is the one table over the admission size caps: each row
// holds a spec at its cap, which must be accepted, and one just past
// it, which must be rejected naming the cap. A grid dimension is also
// paired with a partner large enough that the point count overflows int
// and wraps into range (to 0, to -1, to MinInt); the cap must still
// hold.
func TestSizeCaps(t *testing.T) {
	cfg := Config{MaxSources: 8, MaxReceivers: 9, MaxNt: 32}.withDefaults()
	grid := func(nsx, nsy, nrx, nry int) func(*JobSpec) {
		return func(s *JobSpec) { s.Dataset.NsX, s.Dataset.NsY, s.Dataset.NrX, s.Dataset.NrY = nsx, nsy, nrx, nry }
	}
	cases := []struct {
		name     string
		at, over func(*JobSpec)
		substr   string
	}{
		{"sources", grid(4, 2, 3, 3), grid(3, 3, 3, 3), "source"},
		{"receivers", grid(2, 2, 3, 3), grid(2, 2, 5, 2), "receiver"},
		{"nsx with overflowing nsy", grid(4, 2, 3, 3), grid(1<<32+1, 1<<32-1, 3, 3), "source"},
		{"nsy with overflowing nsx", grid(2, 4, 3, 3), grid(4, 1<<62, 3, 3), "source"},
		{"nrx with overflowing nry", grid(2, 2, 3, 3), grid(2, 2, 1<<32, 1<<32), "receiver"},
		{"nry with overflowing nrx", grid(2, 2, 3, 3), grid(2, 2, 2, 1<<62), "receiver"},
		{"nt", func(s *JobSpec) { s.Dataset.Nt = 32 }, func(s *JobSpec) { s.Dataset.Nt = 33 }, "nt"},
		{"iters", func(s *JobSpec) { s.Iters = maxIters }, func(s *JobSpec) { s.Iters = maxIters + 1 }, "iteration"},
		{"reps", func(s *JobSpec) { s.Reps = maxReps }, func(s *JobSpec) { s.Reps = maxReps + 1 }, "rep"},
	}
	for _, tc := range cases {
		at := JobSpec{Type: JobMDD, Dataset: DatasetSpec{NsX: 2, NsY: 2, NrX: 3, NrY: 3, Nt: 16}}
		over := at
		tc.at(&at)
		tc.over(&over)
		if err := cfg.validateSize(&at); err != nil {
			t.Errorf("%s: spec at the cap rejected: %v", tc.name, err)
		}
		err := cfg.validateSize(&over)
		if err == nil {
			t.Errorf("%s: spec past the cap accepted: %+v", tc.name, over.Dataset)
			continue
		}
		if !contains(err.Error(), tc.substr) {
			t.Errorf("%s: error %q does not name the %s cap", tc.name, err, tc.substr)
		}
	}
}

// TestSubmitAppliesDefaults: a spec's optional knobs are filled at
// admission, and Resume wakes the worker parked by Pause to run the job.
func TestSubmitAppliesDefaults(t *testing.T) {
	suite.VerifyNoLeaks(t)
	s := newServer(t, testConfig())
	s.Pause()
	id, err := s.submit(testSpec(JobMDD), "")
	if err != nil {
		t.Fatal(err)
	}
	j, ok := s.jobByID(id)
	if !ok {
		t.Fatal("job not registered")
	}
	if j.tenant != "anonymous" {
		t.Errorf("empty tenant mapped to %q, want anonymous", j.tenant)
	}
	if j.spec.NB != 8 || j.spec.Tol != 1e-4 || j.spec.Iters != 10 || j.spec.Reps != 1 {
		t.Errorf("defaults not applied: %+v", j.spec)
	}
	waitParked(t, 1)
	s.Resume()
	if st := waitTerminal(t, s, id); st.State != StateDone {
		t.Fatalf("job queued under Pause ended %s after Resume: %s", st.State, st.Error)
	}
}

func TestCancelQueuedVsWorkerCAS(t *testing.T) {
	s := newServer(t, testConfig())
	s.Pause()
	id, err := s.submit(testSpec(JobCompress), "t")
	if err != nil {
		t.Fatal(err)
	}
	st, ok := s.cancel(id)
	if !ok || st.State != StateCancelled {
		t.Fatalf("cancel of queued job: %+v ok=%v", st, ok)
	}
	// Second cancel is a no-op, not a double-finish.
	st, ok = s.cancel(id)
	if !ok || st.State != StateCancelled {
		t.Fatalf("re-cancel: %+v ok=%v", st, ok)
	}
	s.Resume()
	// The worker must skip the tombstone; a fresh job still runs.
	id2, err := s.submit(testSpec(JobCompress), "t")
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, id2); st.State != StateDone {
		t.Fatalf("follow-up job ended %s: %s", st.State, st.Error)
	}
	stats := s.Stats()
	if stats.Cancelled != 1 || stats.Completed != 1 {
		t.Errorf("stats = %+v, want 1 cancelled + 1 completed", stats)
	}
	if stats.PeakInflight["t"] != 1 {
		t.Errorf("peak inflight %d, want 1 (cancel must release the slot before the next submit)",
			stats.PeakInflight["t"])
	}
}

func TestAdmissionRejectsAreDeterministic(t *testing.T) {
	cfg := testConfig()
	cfg.QueueSize = 2
	cfg.PerTenantInflight = 2
	s := newServer(t, cfg)
	s.Pause()

	for i := 0; i < 2; i++ {
		if _, err := s.submit(testSpec(JobCompress), "a"); err != nil {
			t.Fatal(err)
		}
	}
	// Tenant limit fires before queue capacity for the saturated tenant…
	_, err := s.submit(testSpec(JobCompress), "a")
	se, ok := err.(*submitErr)
	if !ok || se.code != CodeTenantLimit {
		t.Fatalf("3rd submit for tenant a: %v, want tenant_limit", err)
	}
	// …and the full queue rejects everyone else.
	_, err = s.submit(testSpec(JobCompress), "b")
	se, ok = err.(*submitErr)
	if !ok || se.code != CodeQueueFull {
		t.Fatalf("submit for tenant b: %v, want queue_full", err)
	}
	stats := s.Stats()
	if stats.RejectsTenant != 1 || stats.RejectsQueue != 1 || stats.QueueDepth != 2 {
		t.Errorf("stats = %+v", stats)
	}
	s.Resume()
}

// TestClosedServerRejectsSubmit: Close wakes the parked worker pool and
// returns, and the closed server rejects new work.
func TestClosedServerRejectsSubmit(t *testing.T) {
	suite.VerifyNoLeaks(t)
	s := New(testConfig())
	waitParked(t, 1)
	if !closeWithin(t, s) {
		t.FailNow()
	}
	_, err := s.submit(testSpec(JobCompress), "t")
	se, ok := err.(*submitErr)
	if !ok || se.code != CodeShutdown {
		t.Fatalf("submit after Close: %v, want shutting_down", err)
	}
}

// TestDatasetCacheBuildsOnce: the build cache is keyed on what shapes
// the dataset and its kernels, not on what a job does with them, so a
// burst of every job type over one spec synthesizes and compresses
// once — one miss, a hit for every other job, one cached build.
func TestDatasetCacheBuildsOnce(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	before := obs.TakeSnapshot()
	s := newServer(t, testConfig())
	types := []JobType{JobCompress, JobCompress, JobTLRMVM, JobMDD, JobCompress}
	ids := make([]string, 0, len(types))
	for _, typ := range types {
		id, err := s.submit(testSpec(typ), "t")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	var ratio float64
	for i, id := range ids {
		st := waitTerminal(t, s, id)
		if st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
		if types[i] != JobCompress {
			continue
		}
		if ratio == 0 {
			ratio = st.Result.CompressionRatio
		} else if st.Result.CompressionRatio != ratio {
			t.Errorf("cached build must be shared: ratio %g != %g", st.Result.CompressionRatio, ratio)
		}
	}
	if n := cached(s.builds); n != 1 {
		t.Errorf("cache holds %d builds for one spec key, want 1", n)
	}
	after := obs.TakeSnapshot()
	misses := after.Counter("serve.cache.misses") - before.Counter("serve.cache.misses")
	hits := after.Counter("serve.cache.hits") - before.Counter("serve.cache.hits")
	if misses != 1 || hits != int64(len(types)-1) {
		t.Errorf("%d jobs over one spec: %d builds, %d cache hits; want 1 and %d", len(types), misses, hits, len(types)-1)
	}
}

func TestJobTransitionCAS(t *testing.T) {
	j := &job{state: StateQueued, notify: make(chan struct{})}
	if !j.transition(StateQueued, StateRunning) {
		t.Fatal("queued→running must succeed")
	}
	if j.transition(StateQueued, StateCancelled) {
		t.Fatal("stale queued→cancelled must lose the race")
	}
	if !j.transition(StateRunning, StateDone) {
		t.Fatal("running→done must succeed")
	}
	if len(j.events) != 2 {
		t.Errorf("%d state events, want 2", len(j.events))
	}
	for i, ev := range j.events {
		if ev.Seq != i {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
	}
}

// TestStoreDirServesFromDisk runs the same MDD job through an in-memory
// server and a StoreDir server: the fp32 page codec decodes
// bit-identically, so results must match exactly while the store-backed
// build faults its kernel tiles from the temp-dir page file.
func TestStoreDirServesFromDisk(t *testing.T) {
	spec := testSpec(JobMDD)
	spec.Iters = 5

	mem := newServer(t, testConfig())
	id, err := mem.submit(spec, "t")
	if err != nil {
		t.Fatal(err)
	}
	want := waitTerminal(t, mem, id)
	if want.State != StateDone {
		t.Fatalf("in-memory job: %s (%s)", want.State, want.Error)
	}

	cfg := testConfig()
	cfg.StoreDir = t.TempDir()
	s := newServer(t, cfg)
	id, err = s.submit(spec, "t")
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, id)
	if got.State != StateDone {
		t.Fatalf("store-backed job: %s (%s)", got.State, got.Error)
	}
	if got.Result.InversionNMSE != want.Result.InversionNMSE ||
		got.Result.FinalResidual != want.Result.FinalResidual ||
		got.Result.Iterations != want.Result.Iterations {
		t.Errorf("store-backed result diverged: %+v vs %+v", got.Result, want.Result)
	}

	builds := s.builds.ready()
	if len(builds) != 1 {
		t.Fatalf("cache holds %d builds, want 1", len(builds))
	}
	for _, b := range builds {
		pv := b.pipe.Provenance
		if pv.StoreBudget != pv.CompressedBytes/2 {
			t.Fatalf("StoreDir build reports budget %d, want half of %d", pv.StoreBudget, pv.CompressedBytes)
		}
		stats := b.pipe.StoreStats()
		if stats.Misses == 0 {
			t.Errorf("store-backed solve never faulted a tile: %+v", stats)
		}
		if stats.ResidentBytes > stats.Budget {
			t.Errorf("resident %d exceeds budget %d", stats.ResidentBytes, stats.Budget)
		}
		if _, ok := b.pipe.Problem.K.(*mdc.TLRKernel); !ok {
			t.Fatalf("built kernel is %T, want *mdc.TLRKernel", b.pipe.Problem.K)
		}
		for f := 0; f < b.pipe.DS.NumFreqs(); f++ {
			if !b.pipe.Kernel.Mats[f].OutOfCore() {
				t.Errorf("kernel matrix %d is not store-backed", f)
			}
		}
		if b.slice.OutOfCore() {
			t.Error("the tlrmvm slice must stay in memory")
		}
	}
}

// TestFailedBuildIsRebuilt: a build that fails (here: StoreDir below a
// regular file, so the page file cannot be created) fails its job, and
// every job waiting on that build, but leaves no cache entry — once the
// directory exists the same spec builds and completes. The survey under
// it was generated fine and stays: every build of the test is on the one
// survey. The resubmission finds the workers parked, so Submit has to
// wake one.
func TestFailedBuildIsRebuilt(t *testing.T) {
	suite.VerifyNoLeaks(t)
	obs.Enable()
	defer obs.Disable()
	begin := obs.TakeSnapshot()

	blocker := filepath.Join(t.TempDir(), "stores")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Workers = 2
	cfg.StoreDir = filepath.Join(blocker, "sub")
	s := newServer(t, cfg)
	spec := testSpec(JobMDD)
	spec.Iters = 3

	// A pair of jobs of the failing spec starts on the two workers. When
	// the second finds the first's build in flight it waits on it, and
	// the failure must wake it; when the first build has already failed,
	// the second builds for itself and another pair is run.
	hits := func() int64 { return obs.TakeSnapshot().Counter("serve.cache.hits") }
	start := hits()
	for pair := 0; hits() == start; pair++ {
		if pair == 20 {
			t.Fatalf("in %d pairs no job waited on another's build", pair)
		}
		s.Pause()
		var ids []string
		for i := 0; i < 2; i++ {
			id, err := s.submit(spec, "t")
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		s.Resume()
		for _, id := range ids {
			if st := waitTerminal(t, s, id); st.State != StateFailed {
				t.Fatalf("job %s under an unusable StoreDir ended %s, want failed", id, st.State)
			}
		}
		if n := cached(s.builds); n != 0 {
			t.Fatalf("failed build left %d cache entries", n)
		}
		if n := cached(s.surveys); n != 1 {
			t.Fatalf("%d cached surveys after a failed store-back, want the one good survey", n)
		}
	}
	failed := obs.TakeSnapshot()

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(cfg.StoreDir, 0o755); err != nil {
		t.Fatal(err)
	}
	waitParked(t, 2)
	id, err := s.submit(spec, "t")
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, id); st.State != StateDone {
		t.Fatalf("same spec after the directory exists: %s (%s)", st.State, st.Error)
	}
	after := obs.TakeSnapshot()
	if misses := after.Counter("serve.cache.misses") - failed.Counter("serve.cache.misses"); misses != 1 {
		t.Errorf("%d cache misses for the resubmission, want 1 (its rebuild)", misses)
	}
	if misses := after.Counter("serve.survey.misses") - begin.Counter("serve.survey.misses"); misses != 1 {
		t.Errorf("survey generated %d times, want once: a failed build must keep its survey", misses)
	}
}

// TestColdBuildSharesSurvey: mdd jobs at three (nb, tol) on one dataset
// generate its survey once and build all three on it, sharing one
// dataset, and each job's residuals, final residual and NMSE are == those
// of an in-process core.BuildPipeline of the same spec, solved the way
// the server solves.
func TestColdBuildSharesSurvey(t *testing.T) {
	suite.VerifyNoLeaks(t)
	obs.Enable()
	defer obs.Disable()
	before := obs.TakeSnapshot()
	cfg := testConfig()
	cfg.Workers = 2
	s := newServer(t, cfg)

	var specs []JobSpec
	var ids []string
	for _, c := range []struct {
		nb  int
		tol float64
	}{{8, 1e-4}, {4, 1e-3}, {6, 3e-4}} {
		spec := testSpec(JobMDD)
		spec.NB, spec.Tol, spec.VS, spec.Iters = c.nb, c.tol, 4, 6
		id, err := s.submit(spec, "t")
		if err != nil {
			t.Fatal(err)
		}
		specs, ids = append(specs, spec), append(ids, id)
	}
	for i, id := range ids {
		got := waitTerminal(t, s, id)
		if got.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, got.State, got.Error)
		}
		spec := specs[i]
		pipe, err := core.BuildPipeline(core.PipelineOptions{
			Dataset: surveyOptions(spec.Dataset), TileSize: spec.NB, Accuracy: spec.Tol,
		})
		if err != nil {
			t.Fatal(err)
		}
		sop, err := pipe.Problem.ShardedOperator(s.cfg.Shards)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mdd.InvertResilient(sop, pipe.Problem.Data(spec.VS), mdd.ResilientOptions{
			LSQR: lsqr.Options{MaxIters: spec.Iters}, CheckpointInterval: 1, MaxRestarts: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := got.Result
		if nmse := pipe.Problem.NMSEAgainstTruth(want.Result.X, spec.VS); res.InversionNMSE != nmse ||
			res.FinalResidual != want.Result.ResidualNorm {
			t.Errorf("nb %d tol %g: served NMSE %g residual %g, in-process %g and %g",
				spec.NB, spec.Tol, res.InversionNMSE, res.FinalResidual, nmse, want.Result.ResidualNorm)
		}
		if len(res.Residuals) != len(want.Result.ResidualHistory) {
			t.Fatalf("nb %d tol %g: %d residuals served, %d in-process",
				spec.NB, spec.Tol, len(res.Residuals), len(want.Result.ResidualHistory))
		}
		for k, r := range want.Result.ResidualHistory {
			if res.Residuals[k] != r {
				t.Errorf("nb %d tol %g: residual %d served %g, in-process %g", spec.NB, spec.Tol, k, res.Residuals[k], r)
			}
		}
	}

	after := obs.TakeSnapshot()
	if misses := after.Counter("serve.survey.misses") - before.Counter("serve.survey.misses"); misses != 1 {
		t.Errorf("three builds on one dataset generated its survey %d times, want once", misses)
	}
	builds := s.builds.ready()
	if len(builds) != len(specs) {
		t.Fatalf("%d cached builds, want %d", len(builds), len(specs))
	}
	for _, b := range builds {
		if b.pipe.DS != builds[0].pipe.DS {
			t.Fatal("builds on one dataset hold different datasets; they must share the survey's")
		}
	}
}

// TestFaultedSolveFailsJob: an mdd job whose solve the fault schedule
// defeats (every operator product from the first on fails) gives up
// after its restarts and reads failed with the restart count in its
// error, and the worker goes on to run the next job.
func TestFaultedSolveFailsJob(t *testing.T) {
	suite.VerifyNoLeaks(t)
	cfg := testConfig()
	cfg.Faults = fault.Schedule{{Target: "op", Kind: fault.Die, At: 1}}
	s := newServer(t, cfg)
	id, err := s.submit(testSpec(JobMDD), "t")
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, id); st.State != StateFailed || !contains(st.Error, "gave up after 4 restarts") {
		t.Fatalf("mdd job under op:die@1 ended %s (%q), want failed after 4 restarts", st.State, st.Error)
	}
	id, err = s.submit(testSpec(JobTLRMVM), "t")
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, id); st.State != StateDone {
		t.Fatalf("next job ended %s (%s), want done", st.State, st.Error)
	}
}
