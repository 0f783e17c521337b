package main

import (
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadDecl(t *testing.T) *benchmarkFile {
	t.Helper()
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFile holds BENCHMARK.json to the limits its consumers
// refuse a file for, and to the workloads this package implements.
func TestBenchmarkFile(t *testing.T) {
	bf := loadDecl(t)
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		check("workload", w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is declared %q, implemented %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range bf.EndToEnd {
		check("end-to-end", d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range bf.PerLayer {
		check("per-layer", d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound != 0 {
			t.Errorf("%s: unit %q, better %q, bound %g", d.Name, d.Unit, d.Better, d.Bound)
		}
	}
	if n := len(bf.PerLayer); n > 128 {
		t.Errorf("%d per-layer metrics, at most 128", n)
	}
}

// layerMetrics are per-layer metrics each workload must measure itself
// (the rest of the declared list may read 0 where a layer is not
// exercised).
var layerMetrics = map[string][]string{
	"solve-survey": {"tlr.busy_pct", "mdc.self_pct", "fft.pct", "lsqr.self_share", "mdd.rhs_build_pct", "mdd.unattributed_pct", "trace.overhead_pct", "tlr.compress_s", "solve_ms_p75"},
	"solve-dram":   {"tlr.busy_pct", "mdc.self_pct", "lsqr.self_share", "mdd.unattributed_pct", "trace.overhead_pct", "tlr.bw_frac", "tlr.operator_over_llc_x", "host.triad_gbps.dram"},
	"solve-ooc":    {"tlr.busy_pct", "mdd.unattributed_pct", "opstore.misses", "opstore.evictions", "opstore.misses_per_iter.w1", "opstore.resident_bytes_max", "opstore.slowdown_x", "tlrio.write_s"},
	"serve-mix":    {"serve.queue_wait_ms_p50", "serve.cache_hits", "serve.cache_misses", "serve.overhead_ms", "first_residual_ms_p50", "cold_job_ms_p50", "job_ms_p95", "batch.shard_dispatch_us_per_task"},
}

// TestSmoke runs every workload at the smoke scale: untraced twice with
// one seed, traced once.
func TestSmoke(t *testing.T) {
	bf := loadDecl(t)
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			run := func(trace bool) *runResult {
				t.Helper()
				res, err := wl.run(runConfig{seed: 7, seconds: 0, trace: trace, smoke: true, tmpDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 || res.attempted == 0 {
					t.Fatalf("%d of %d failed: %v", res.failed, res.attempted, res.notes)
				}
				return res
			}

			// Untraced: exactly the end-to-end names, none of them 0, and a
			// second run of the same seed repeats the counts and the
			// accuracy metrics exactly.
			a, b := run(false), run(false)
			if _, err := selectMetrics(bf.EndToEnd, a.metrics, false); err != nil {
				t.Error(err)
			}
			for name, v := range a.metrics {
				if v == 0 {
					t.Errorf("end-to-end metric %s is 0", name)
				}
			}
			for _, name := range []string{"rel_residual", "inversion_nmse"} {
				if a.metrics[name] != b.metrics[name] {
					t.Errorf("%s: %v then %v with the same seed", name, a.metrics[name], b.metrics[name])
				}
			}
			if a.attempted != b.attempted {
				t.Errorf("attempted %d then %d with the same seed", a.attempted, b.attempted)
			}
			for k, v := range a.counts {
				if b.counts[k] != v {
					t.Errorf("count %s: %d then %d with the same seed", k, v, b.counts[k])
				}
			}

			// Traced: only declared per-layer names, the workload's own
			// layers measured, and spans that nest.
			tr := run(true)
			if _, err := selectMetrics(bf.PerLayer, tr.metrics, true); err != nil {
				t.Error(err)
			}
			for _, name := range layerMetrics[wl.name] {
				if _, ok := tr.metrics[name]; !ok {
					t.Errorf("per-layer metric %s was not measured", name)
				}
			}
			if len(tr.spans) == 0 {
				t.Fatal("no spans")
			}
			byID := map[int]span{}
			for _, s := range tr.spans {
				byID[s.ID] = s
			}
			for _, s := range tr.spans {
				if s.End < s.Start {
					t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
				}
				if s.Parent == 0 {
					continue
				}
				p, ok := byID[s.Parent]
				if !ok || s.Start < p.Start || s.End > p.End || s.Unit != p.Unit {
					t.Errorf("span %d %s [%d,%d] unit %d does not nest in parent %+v", s.ID, s.Name, s.Start, s.End, s.Unit, p)
				}
			}
			if wl.name != "serve-mix" {
				sum := tr.metrics["tlr.busy_pct"] + tr.metrics["mdc.self_pct"] + tr.metrics["fft.pct"] +
					tr.metrics["lsqr.self_share"] + tr.metrics["mdd.rhs_build_pct"] + tr.metrics["mdd.unattributed_pct"]
				if sum < 99.99 || sum > 100.01 {
					t.Errorf("layer shares sum to %g%%, want 100", sum)
				}
			}
		})
	}
}

// TestMissesPerIterRepeat: the one-worker counts pass of solve-ooc
// repeats exactly.
func TestMissesPerIterRepeat(t *testing.T) {
	var got [2]float64
	for i := range got {
		res, err := runSolveOOC(runConfig{seed: 7, trace: true, smoke: true, tmpDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		got[i] = res.metrics["opstore.misses_per_iter.w1"]
		if peak := res.metrics["opstore.resident_bytes_max"]; peak > res.metrics["opstore.budget_bytes"] || res.metrics["opstore.evictions"] == 0 {
			t.Errorf("resident max %g over budget %g, or no eviction", peak, res.metrics["opstore.budget_bytes"])
		}
	}
	if got[0] != got[1] || got[0] == 0 {
		t.Errorf("opstore.misses_per_iter.w1: %g then %g", got[0], got[1])
	}
}

func TestCoveredBy(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 50}, {Start: 70, End: 120}, {Start: 75, End: 80}}
	if got := coveredBy(parent, kids); got != 70 {
		t.Errorf("union of overlapping children = %d, want 70", got)
	}
	if got := coveredBy(parent, nil); got != 0 {
		t.Errorf("no children = %d, want 0", got)
	}
}

func TestCompareSets(t *testing.T) {
	bf := &benchmarkFile{
		Workloads: []workloadDef{{Name: "w"}},
		EndToEnd:  []metricDef{{Name: "lat", Unit: "ms", Better: "lower", Bound: 0.1}},
		PerLayer:  []metricDef{{Name: "x", Unit: "count", Better: "lower"}},
	}
	set := func(vals ...float64) []outputRecord {
		var out []outputRecord
		for _, v := range vals {
			out = append(out, outputRecord{Workload: "w", Metrics: map[string]float64{"lat": v}})
		}
		return out
	}
	for _, tc := range []struct {
		name string
		a, b []outputRecord
		want int
	}{
		{"same", set(10, 10.1, 9.9), set(10.2, 10, 10.1), 0},
		{"worse", set(10, 10.1, 9.9), set(12, 12.1, 11.9), 1},
		{"better", set(10, 10.1, 9.9), set(5, 5.1, 4.9), 0},
		{"noisy is unresolved, not a failure", set(10, 14, 6, 12, 8), set(12, 16, 8, 13, 9), 0},
	} {
		if got := compareSets(bf, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.want)
		}
	}
}
