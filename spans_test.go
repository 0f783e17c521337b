package repro

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/cgls"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lsqr"
	"repro/internal/mddclient"
	"repro/internal/mddserve"
	"repro/internal/obs"
	"repro/internal/seismic"
	"repro/internal/testkit/suite"
)

// checkSpans fails unless exactly the want timers recorded spans since
// the last obs.Reset, each as many as want says.
func checkSpans(t *testing.T, route string, want map[string]int64) {
	t.Helper()
	got := map[string]int64{}
	for _, tm := range obs.TakeSnapshot().Timers {
		got[tm.Name] = tm.Count
		if _, ok := want[tm.Name]; !ok {
			t.Errorf("%s: timer %s recorded %d spans, want none", route, tm.Name, tm.Count)
		}
	}
	for name, n := range want {
		if got[name] != n {
			t.Errorf("%s: timer %s recorded %d spans, want %d", route, name, got[name], n)
		}
	}
}

// TestTimersRecordEverySpan runs the three routes a product takes — an
// in-process LSQR solve on the one-sweep step route (mdc.FreqOperator
// over the TLR kernel), a CGLS solve on the composed route, and one
// served MDD job on the sharded step route — with obs enabled, and holds
// every timer on them to exactly one span per product, iteration, solve
// or job. A span that is started and never ended, or never started,
// records nothing and fails here by timer name.
func TestTimersRecordEverySpan(t *testing.T) {
	suite.VerifyNoLeaks(t)
	// the survey mddserve generates for ds, so nf is the served
	// kernel's frequency count too
	ds := mddserve.DatasetSpec{NsX: 4, NsY: 3, NrX: 3, NrY: 3, Nt: 32}
	pipe, err := core.BuildPipeline(core.PipelineOptions{Dataset: seismic.Options{
		Geom: seismic.Geometry{NsX: ds.NsX, NsY: ds.NsY, NrX: ds.NrX, NrY: ds.NrY,
			Dx: 20, Dy: 20, SrcDepth: 10, RecDepth: 300},
		Nt: ds.Nt, Dt: 0.004,
	}})
	if err != nil {
		t.Fatal(err)
	}
	prob := pipe.Problem
	nf := int64(prob.K.NumFreqs())
	const iters = 6

	obs.Enable()
	defer obs.Disable()

	obs.Reset()
	sol, err := prob.Invert(0, lsqr.Options{MaxIters: iters})
	if err != nil {
		t.Fatal(err)
	}
	n := int64(sol.LSQR.Iters)
	if n == 0 {
		t.Fatal("LSQR ran no iteration")
	}
	// one adjoint product starts the bidiagonalization, then one step
	// (one sweep per frequency) per iteration
	checkSpans(t, "lsqr step route", map[string]int64{
		"lsqr.solve": 1, "lsqr.iter": n,
		"mdc.freq.adjoint": 1, "tlr.mvm_adjoint": nf,
		"mdc.freq.step": n, "tlr.mvm_step": n * nf,
	})

	obs.Reset()
	cres, err := cgls.Solve(prob.Operator(), prob.Data(0), cgls.Options{MaxIters: iters})
	if err != nil {
		t.Fatal(err)
	}
	n = int64(cres.Iters)
	// Aᴴ b, then one forward and one adjoint product per iteration
	checkSpans(t, "cgls", map[string]int64{
		"cgls.solve": 1, "cgls.iter": n,
		"mdc.freq.apply": n, "tlr.mvm": n * nf,
		"mdc.freq.adjoint": n + 1, "tlr.mvm_adjoint": (n + 1) * nf,
	})

	srv := mddserve.New(mddserve.Config{Workers: 1, Shards: 2, BackoffSleep: func(time.Duration) {}})
	defer srv.Close()
	web := httptest.NewServer(srv.Handler())
	defer web.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	obs.Reset()
	st, err := mddclient.New(web.URL, mddclient.Options{Tenant: "spans"}).Run(ctx, mddserve.JobSpec{Type: mddserve.JobMDD, Dataset: ds, Iters: iters})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != mddserve.StateDone {
		t.Fatalf("served job %s: %s", st.State, st.Error)
	}
	n = int64(st.Result.Iterations)
	// a cold build compresses every frequency once; then, as in process,
	// one adjoint product and one step per iteration, each one
	// shard-runner pass over the frequencies
	checkSpans(t, "served job", map[string]int64{
		"serve.job.latency":   1,
		"mdc.compress_kernel": 1, "tlr.compress": nf,
		"lsqr.solve": 1, "lsqr.iter": n,
		"mdc.sharded.adjoint": 1, "tlr.mvm_adjoint": nf,
		"mdc.sharded.step": n, "tlr.mvm_step": n * nf,
		"batch.shard.run": n + 1,
	})
}

// TestShardOnlyFaultsKeepTheStep: a served MDD job on a schedule that
// targets shards only (one of two shards dies, the other fails once and
// is retried) takes the one-sweep step route, as an unfaulted job does —
// with no "op" event to fire, no whole-product fault wrapper hides
// ApplyStep — and returns the unfaulted job's result bit for bit.
func TestShardOnlyFaultsKeepTheStep(t *testing.T) {
	suite.VerifyNoLeaks(t)
	spec := mddserve.JobSpec{Type: mddserve.JobMDD, Iters: 6, ReturnSolution: true,
		Dataset: mddserve.DatasetSpec{NsX: 4, NsY: 3, NrX: 3, NrY: 3, Nt: 32}}
	obs.Enable()
	defer obs.Disable()
	serve := func(faults string) (*mddserve.JobResult, obs.Snapshot) {
		t.Helper()
		sched, err := fault.Parse(faults)
		if err != nil {
			t.Fatal(err)
		}
		srv := mddserve.New(mddserve.Config{Workers: 1, Shards: 2, Faults: sched,
			FaultSleep: func(time.Duration) {}, BackoffSleep: func(time.Duration) {}})
		defer srv.Close()
		web := httptest.NewServer(srv.Handler())
		defer web.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		obs.Reset()
		st, err := mddclient.New(web.URL, mddclient.Options{Tenant: "faults"}).Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != mddserve.StateDone {
			t.Fatalf("faults %q: job %s: %s", faults, st.State, st.Error)
		}
		return st.Result, obs.TakeSnapshot()
	}
	want, _ := serve("")
	got, snap := serve("shard1:die@3,shard0:err@2")
	if n := snap.Counter("fault.injected"); n != 2 {
		t.Errorf("%d faults injected, want the schedule's 2", n)
	}
	spans := map[string]int64{}
	for _, tm := range snap.Timers {
		spans[tm.Name] = tm.Count
	}
	if n := int64(got.Iterations); spans["mdc.sharded.step"] != n || spans["mdc.sharded.apply"] != 0 || spans["mdc.sharded.adjoint"] != 1 {
		t.Errorf("%d iterations took %d steps, %d forward and %d adjoint products; want %d, 0 and 1",
			n, spans["mdc.sharded.step"], spans["mdc.sharded.apply"], spans["mdc.sharded.adjoint"], n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("shard-only faulted job %+v\nunfaulted job %+v", got, want)
	}
}
